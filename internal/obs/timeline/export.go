package timeline

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"daxvm/internal/obs"
)

// Export is one segment's timeline in artifact form: window deltas only,
// maps pruned of zero entries so committed baselines stay small.
// encoding/json sorts map keys, so marshalling an Export is byte-stable.
type Export struct {
	Segment string `json:"segment,omitempty"`
	// IntervalCycles is the final sampling period after adaptive
	// coalescing.
	IntervalCycles uint64     `json:"interval_cycles"`
	Intervals      []Interval `json:"intervals"`
	Runs           []RunMark  `json:"runs,omitempty"`
}

// Interval is one sampled window: [Start, End) in concatenated segment
// cycles, with the window's cycle total, non-zero counter deltas,
// histogram summaries and top-level attribution split.
type Interval struct {
	Start    uint64               `json:"start_cycles"`
	End      uint64               `json:"end_cycles"`
	Cycles   uint64               `json:"cycles"`
	Counters map[string]uint64    `json:"counters,omitempty"`
	Hists    map[string]HistPoint `json:"hist,omitempty"`
	Attr     map[string]uint64    `json:"attr,omitempty"`
	// Gauges holds per-interval saturation-gauge accumulations (all-zero
	// readings pruned); GaugeSamples is how many sampler wakes landed in
	// the interval, the shared denominator for every gauge's mean.
	Gauges       map[string]GaugePoint `json:"gauges,omitempty"`
	GaugeSamples uint64                `json:"gauge_samples,omitempty"`
}

// HistPoint summarizes one histogram's window delta.
type HistPoint struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// GaugePoint accumulates one gauge's instantaneous readings over an
// interval's GaugeSamples wakes: Sum/GaugeSamples is the mean, Max the
// worst instant observed.
type GaugePoint struct {
	Sum uint64 `json:"sum"`
	Max uint64 `json:"max"`
}

// RunMark records one engine run's span on the segment axis.
type RunMark struct {
	Label string `json:"label"`
	Start uint64 `json:"start_cycles"`
	End   uint64 `json:"end_cycles"`
}

// Export returns every finished segment plus the in-progress one. It does
// not end the current segment, so it may be called repeatedly.
func (tl *Timeline) Export() []Export {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := append([]Export(nil), tl.done...)
	if s := tl.cur; s != nil && (len(s.intervals) > 0 || len(s.runs) > 0) {
		out = append(out, tl.exportSegment(s))
	}
	return out
}

// exportSegment converts in-progress state to artifact form, resolving
// slots to names and pruning zero counters, empty histograms, idle roots
// and all-zero gauges.
func (tl *Timeline) exportSegment(s *segment) Export {
	ex := Export{
		Segment:        s.id,
		IntervalCycles: s.period,
		Intervals:      make([]Interval, 0, len(s.intervals)),
		Runs:           append([]RunMark(nil), s.runs...),
	}
	for i := range s.intervals {
		iv := &s.intervals[i]
		out := Interval{Start: iv.start, End: iv.end, Cycles: iv.cycles, GaugeSamples: iv.gaugeSamples}
		for slot, v := range iv.counters {
			if v != 0 {
				out.Counters = put(out.Counters, tl.reg.CounterName(slot), v)
			}
		}
		for slot := range iv.hists {
			if iv.hists[slot].Count != 0 {
				h := iv.hists[slot].Snapshot()
				out.Hists = put(out.Hists, tl.reg.HistName(slot), HistPoint{Count: h.Count, P50: h.Quantile(0.50), P99: h.Quantile(0.99)})
			}
		}
		for slot, v := range iv.roots {
			if v != 0 {
				out.Attr = put(out.Attr, tl.cyc.RootName(slot), v)
			}
		}
		for slot, g := range iv.gauges {
			if g.sum != 0 || g.max != 0 {
				out.Gauges = put(out.Gauges, tl.gauges[slot].name, GaugePoint{Sum: g.sum, Max: g.max})
			}
		}
		ex.Intervals = append(ex.Intervals, out)
	}
	return ex
}

// put sets m[k] = v, making m on first use so empty series stay nil.
func put[V any](m map[string]V, k string, v V) map[string]V {
	if m == nil {
		m = make(map[string]V)
	}
	m[k] = v
	return m
}

// WriteCSV writes the exports in tidy (long) form —
// experiment,interval,start_cycles,end_cycles,series,value — one row per
// series per interval, series sorted, ready for plotting
// throughput-vs-p99 curves per experiment.
func WriteCSV(w io.Writer, exports []Export) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "experiment,interval,start_cycles,end_cycles,series,value")
	for _, ex := range exports {
		for i, iv := range ex.Intervals {
			row := func(series, value string) {
				fmt.Fprintf(bw, "%s,%d,%d,%d,%s,%s\n", ex.Segment, i, iv.Start, iv.End, series, value)
			}
			row("cycles", strconv.FormatUint(iv.Cycles, 10))
			for _, name := range obs.SortedKeys(iv.Counters) {
				row(name, strconv.FormatUint(iv.Counters[name], 10))
			}
			for _, name := range obs.SortedKeys(iv.Hists) {
				h := iv.Hists[name]
				row(name+".count", strconv.FormatUint(h.Count, 10))
				row(name+".p50", strconv.FormatFloat(h.P50, 'g', -1, 64))
				row(name+".p99", strconv.FormatFloat(h.P99, 'g', -1, 64))
			}
			for _, name := range obs.SortedKeys(iv.Attr) {
				row("attr."+name, strconv.FormatUint(iv.Attr[name], 10))
			}
			if iv.GaugeSamples > 0 {
				row("gauge_samples", strconv.FormatUint(iv.GaugeSamples, 10))
			}
			for _, name := range obs.SortedKeys(iv.Gauges) {
				g := iv.Gauges[name]
				row("gauge."+name+".sum", strconv.FormatUint(g.Sum, 10))
				row("gauge."+name+".max", strconv.FormatUint(g.Max, 10))
			}
		}
	}
	return bw.Flush()
}
