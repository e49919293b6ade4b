package timeline

import (
	"encoding/json"
	"fmt"
	"testing"

	"daxvm/internal/obs"
)

// refTimeline is a map-based reference sampler: every wake takes
// Registry.Snapshot and CycleAccount.Snapshot, diffs them with Delta, and
// keeps map-valued intervals whose attribution split is summed over
// CycleSnapshot leaves by root. The slot-indexed Timeline must export
// exactly what it exports.
type refTimeline struct {
	reg    *obs.Registry
	cyc    *obs.CycleAccount
	cfg    Config
	gauges map[string]func(uint64) uint64
	done   []Export
	cur    *refSegment
}

type refSegment struct {
	id                    string
	period, offset, bound uint64
	intervals             []refInterval
	runs                  []RunMark
	prevReg               obs.Snapshot
	prevCyc               obs.CycleSnapshot
}

type refInterval struct {
	start, end uint64
	reg        obs.Snapshot
	cyc        obs.CycleSnapshot
	gauges     map[string]gaugeAcc
	samples    uint64
}

func newRef(reg *obs.Registry, cyc *obs.CycleAccount, cfg Config) *refTimeline {
	if cfg.BaseInterval == 0 {
		cfg.BaseInterval = DefaultBaseInterval
	}
	if cfg.MaxIntervals == 0 {
		cfg.MaxIntervals = DefaultMaxIntervals
	}
	return &refTimeline{reg: reg, cyc: cyc, cfg: cfg, gauges: map[string]func(uint64) uint64{}}
}

func (r *refTimeline) startSegment(id string) {
	r.finish()
	r.cur = &refSegment{id: id, period: r.cfg.BaseInterval, prevReg: r.reg.Snapshot(), prevCyc: r.cyc.Snapshot()}
}

func (r *refTimeline) finish() {
	if s := r.cur; s != nil && (len(s.intervals) > 0 || len(s.runs) > 0) {
		r.done = append(r.done, s.export())
	}
	r.cur = nil
}

func (r *refTimeline) ensure() *refSegment {
	if r.cur == nil {
		r.startSegment("")
	}
	return r.cur
}

func (r *refTimeline) sample(now uint64) {
	s := r.ensure()
	r.record(s, s.offset+now, now, true)
}

func (r *refTimeline) flushRun(label string, localEnd uint64) {
	s := r.ensure()
	abs := s.offset + localEnd
	r.record(s, abs, localEnd, false)
	if abs > s.offset {
		s.runs = append(s.runs, RunMark{Label: label, Start: s.offset, End: abs})
	}
	s.offset = abs
	s.bound = abs
}

func (r *refTimeline) record(s *refSegment, abs, local uint64, sample bool) {
	curReg, curCyc := r.reg.Snapshot(), r.cyc.Snapshot()
	dReg, dCyc := curReg.Delta(s.prevReg), curCyc.Delta(s.prevCyc)
	s.prevReg, s.prevCyc = curReg, curCyc
	var g map[string]gaugeAcc
	if sample && len(r.gauges) > 0 {
		g = map[string]gaugeAcc{}
		for _, name := range obs.SortedKeys(r.gauges) {
			v := r.gauges[name](local)
			g[name] = gaugeAcc{sum: v, max: v}
		}
	}
	if tr := r.cfg.Tracer; tr != nil {
		tr.Emit(obs.EvCounter, 0, local, 0, "cycles", dCyc.Total)
		for _, name := range r.cfg.TrackCounters {
			if v, ok := dReg.Counters[name]; ok {
				tr.Emit(obs.EvCounter, 0, local, 0, name, v)
			}
		}
		for _, name := range obs.SortedKeys(g) {
			tr.Emit(obs.EvCounter, 0, local, 0, "gauge."+name, g[name].sum)
		}
	}
	if refEmpty(dReg, dCyc) {
		s.bound = abs
		return
	}
	iv := refInterval{start: s.bound, end: abs, reg: dReg, cyc: dCyc, gauges: g}
	if g != nil {
		iv.samples = 1
	}
	if abs == s.bound && len(s.intervals) > 0 {
		// The fold adds the values but keeps the interval's bounds.
		last := &s.intervals[len(s.intervals)-1]
		end := last.end
		*last = refMerge(*last, iv)
		last.end = end
		return
	}
	s.intervals = append(s.intervals, iv)
	s.bound = abs
	if len(s.intervals) > r.cfg.MaxIntervals {
		var merged []refInterval
		for i := 0; i+1 < len(s.intervals); i += 2 {
			merged = append(merged, refMerge(s.intervals[i], s.intervals[i+1]))
		}
		if len(s.intervals)%2 == 1 {
			merged = append(merged, s.intervals[len(s.intervals)-1])
		}
		s.intervals = merged
		s.period *= 2
	}
}

func refEmpty(dReg obs.Snapshot, dCyc obs.CycleSnapshot) bool {
	if dCyc.Total != 0 {
		return false
	}
	for _, v := range dReg.Counters {
		if v != 0 {
			return false
		}
	}
	for _, h := range dReg.Hists {
		if h.Count != 0 {
			return false
		}
	}
	return true
}

// refMerge sums two adjacent intervals (b following a).
func refMerge(a, b refInterval) refInterval {
	m := refInterval{
		start: a.start, end: b.end,
		reg:     obs.Snapshot{Counters: map[string]uint64{}, Hists: map[string]obs.HistSnapshot{}},
		cyc:     obs.CycleSnapshot{Total: a.cyc.Total + b.cyc.Total, Leaves: map[string]obs.CycleLeaf{}},
		gauges:  map[string]gaugeAcc{},
		samples: a.samples + b.samples,
	}
	for _, s := range []obs.Snapshot{a.reg, b.reg} {
		for k, v := range s.Counters {
			m.reg.Counters[k] += v
		}
		for k, h := range s.Hists {
			acc := m.reg.Hists[k]
			acc.Sum += h.Sum
			acc.Count += h.Count
			for bk, c := range h.Buckets {
				if acc.Buckets == nil {
					acc.Buckets = map[int]uint64{}
				}
				acc.Buckets[bk] += c
			}
			m.reg.Hists[k] = acc
		}
	}
	for _, c := range []obs.CycleSnapshot{a.cyc, b.cyc} {
		for p, l := range c.Leaves {
			acc := m.cyc.Leaves[p]
			acc.Cycles += l.Cycles
			m.cyc.Leaves[p] = acc
		}
	}
	for _, g := range []map[string]gaugeAcc{a.gauges, b.gauges} {
		for k, v := range g {
			acc := m.gauges[k]
			acc.merge(v)
			m.gauges[k] = acc
		}
	}
	return m
}

func (s *refSegment) export() Export {
	ex := Export{
		Segment:        s.id,
		IntervalCycles: s.period,
		Intervals:      make([]Interval, 0, len(s.intervals)),
		Runs:           append([]RunMark(nil), s.runs...),
	}
	for _, iv := range s.intervals {
		out := Interval{Start: iv.start, End: iv.end, Cycles: iv.cyc.Total, GaugeSamples: iv.samples}
		for name, v := range iv.reg.Counters {
			if v != 0 {
				out.Counters = put(out.Counters, name, v)
			}
		}
		for name, h := range iv.reg.Hists {
			if h.Count != 0 {
				out.Hists = put(out.Hists, name, HistPoint{Count: h.Count, P50: h.Quantile(0.50), P99: h.Quantile(0.99)})
			}
		}
		for path, l := range iv.cyc.Leaves {
			out.Attr = put(out.Attr, obs.AttrRoot(path), out.Attr[obs.AttrRoot(path)]+l.Cycles)
		}
		for name, g := range iv.gauges {
			if g.sum != 0 || g.max != 0 {
				out.Gauges = put(out.Gauges, name, GaugePoint{Sum: g.sum, Max: g.max})
			}
		}
		ex.Intervals = append(ex.Intervals, out)
	}
	return ex
}

func (r *refTimeline) export() []Export {
	out := append([]Export(nil), r.done...)
	if s := r.cur; s != nil && (len(s.intervals) > 0 || len(s.runs) > 0) {
		out = append(out, s.export())
	}
	return out
}

// pair drives a Timeline and the reference through the same calls.
type pair struct {
	tl      *Timeline
	ref     *refTimeline
	tr, rtr *obs.Tracer
}

func newPair(reg *obs.Registry, cyc *obs.CycleAccount, cfg Config) *pair {
	p := &pair{tr: obs.NewTracer(1 << 12), rtr: obs.NewTracer(1 << 12)}
	cfg.Tracer = p.tr
	p.tl = New(reg, cyc, cfg)
	cfg.Tracer = p.rtr
	p.ref = newRef(reg, cyc, cfg)
	return p
}

func (p *pair) start(id string)   { p.tl.StartSegment(id); p.ref.startSegment(id) }
func (p *pair) sample(now uint64) { p.tl.Sample(now); p.ref.sample(now) }
func (p *pair) flush(label string, end uint64) {
	p.tl.FlushRun(label, end)
	p.ref.flushRun(label, end)
}
func (p *pair) gauge(name string, fn func(uint64) uint64) {
	p.tl.Gauge(name, fn)
	p.ref.gauges[name] = fn
}

// check compares the exports and the counter-track events.
func (p *pair) check(t *testing.T) {
	t.Helper()
	got, err := json.Marshal(p.tl.Export())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(p.ref.export())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("export differs from the reference:\n got:  %s\n want: %s", got, want)
	}
	if g, w := fmt.Sprint(p.tr.Events()), fmt.Sprint(p.rtr.Events()); g != w {
		t.Fatalf("counter tracks differ from the reference:\n got:  %s\n want: %s", g, w)
	}
}

func TestSampleMatchesReference(t *testing.T) {
	t.Run("reregistered counter restarts at zero", func(t *testing.T) {
		reg, cyc := obs.NewRegistry(), obs.NewCycleAccount()
		var a, b uint64 = 100, 0
		reg.Counter("k.ops", func() uint64 { return a })
		reg.Counter("k.other", func() uint64 { return 7 })
		p := newPair(reg, cyc, Config{BaseInterval: 10, TrackCounters: []string{"k.ops", "k.missing"}})
		p.start("seg")
		a = 150
		cyc.Charge(0, "app.x", 4)
		p.sample(10)
		// A second boot re-registers the name with a reader starting over:
		// the first window after it clamps to 0, later ones count again.
		reg.Counter("k.ops", func() uint64 { return b })
		b = 5
		cyc.Charge(0, "app.x", 2)
		p.sample(20)
		b = 12
		cyc.Charge(0, "app.x", 1)
		p.sample(30)
		p.flush("run", 35)
		p.check(t)
		if p.tl.Export()[0].Intervals[1].Counters["k.ops"] != 0 {
			t.Fatal("shrunk re-registered counter did not clamp to 0")
		}
	})

	t.Run("counter and histogram registered mid-segment", func(t *testing.T) {
		reg, cyc := obs.NewRegistry(), obs.NewCycleAccount()
		var a uint64
		reg.Counter("z.first", func() uint64 { return a })
		p := newPair(reg, cyc, Config{BaseInterval: 10, TrackCounters: []string{"b.late"}})
		p.start("seg")
		a = 3
		p.sample(10)
		// Registered after the segment's baseline: the first delta is
		// against 0.
		var late uint64 = 40
		reg.Counter("b.late", func() uint64 { return late })
		h := reg.Histogram("b.lat")
		h.Observe(300)
		h.Observe(5)
		cyc.Charge(1, "fault.minor", 9)
		p.sample(20)
		late = 45
		h.Observe(70000)
		p.flush("run", 25)
		p.check(t)
	})

	t.Run("gauge registered mid-segment sorts first", func(t *testing.T) {
		reg, cyc := obs.NewRegistry(), obs.NewCycleAccount()
		p := newPair(reg, cyc, Config{BaseInterval: 10})
		var q, early uint64 = 2, 6
		p.gauge("q.depth", func(uint64) uint64 { return q })
		p.gauge("zero.always", func(uint64) uint64 { return 0 })
		p.start("seg")
		cyc.Charge(0, "app.x", 3)
		p.sample(10)
		p.gauge("a.early", func(now uint64) uint64 { return early + now })
		q = 9
		cyc.Charge(0, "app.x", 3)
		p.sample(20)
		cyc.Charge(0, "app.y", 3)
		p.sample(30)
		// Re-registering keeps the slot and swaps the reader.
		p.gauge("q.depth", func(uint64) uint64 { return 1 })
		cyc.Charge(0, "app.y", 1)
		p.sample(40)
		p.flush("run", 40)
		p.check(t)
	})

	t.Run("coalescing, empty windows and flush fold", func(t *testing.T) {
		reg, cyc := obs.NewRegistry(), obs.NewCycleAccount()
		var ops uint64
		reg.Counter("k.ops", func() uint64 { return ops })
		h := reg.Histogram("k.lat")
		var depth uint64
		p := newPair(reg, cyc, Config{BaseInterval: 8, MaxIntervals: 6, TrackCounters: []string{"k.ops"}})
		p.gauge("k.depth", func(uint64) uint64 { return depth })
		p.start("first")
		var now uint64
		roots := []string{"app.a", "fault.b", "journal", "setup.mkfs"}
		for i := 0; i < 90; i++ {
			if i%7 != 3 { // every seventh window is empty
				cyc.Charge(i%2, roots[i%len(roots)], uint64(1+i%5))
				ops += uint64(i % 3)
				h.Observe(uint64(i * i))
				depth = uint64(i % 4)
			}
			now = p.tl.NextWake(now)
			p.sample(now)
			if i%30 == 29 {
				// Work booked at the exact sample time after the sampler
				// ran: a zero-width flush tail folds into the last interval.
				cyc.Charge(0, "app.tail", 5)
				ops++
				p.flush("run", now)
				now = 0
			}
		}
		p.start("second")
		cyc.Charge(0, "app.a", 11)
		p.sample(8)
		p.sample(16) // empty
		cyc.Charge(0, "app.a", 1)
		p.flush("run", 16) // zero-width tail after an empty window
		p.check(t)
		ex := p.tl.Export()
		if len(ex) != 2 || ex[0].IntervalCycles <= 8 {
			t.Fatalf("want two segments, the first coalesced; got %d segments, period %d", len(ex), ex[0].IntervalCycles)
		}
	})

	t.Run("nil registry", func(t *testing.T) {
		cyc := obs.NewCycleAccount()
		p := newPair(nil, cyc, Config{BaseInterval: 10, TrackCounters: []string{"k.ops"}})
		p.start("seg")
		cyc.Charge(0, "app.x", 4)
		p.sample(10)
		p.sample(20)
		p.flush("run", 25)
		p.check(t)
	})

	t.Run("nil cycle account", func(t *testing.T) {
		reg := obs.NewRegistry()
		var ops uint64
		reg.Counter("k.ops", func() uint64 { return ops })
		p := newPair(reg, nil, Config{BaseInterval: 10})
		p.sample(10) // no StartSegment: an unnamed segment opens
		ops = 4
		p.sample(20)
		p.flush("run", 25)
		p.check(t)
	})
}
