// Package timeline is the virtual-time interval sampler: a daemon thread
// (sim.Engine.GoSampler) wakes every period cycles and records the window
// delta of every registered counter, each latency histogram, and the
// per-root cycle attribution since the previous sample. Sampling only
// reads — it charges zero cycles and mutates no simulated state — so a
// run with a timeline attached produces bit-identical metrics to one
// without.
//
// Time axis. Each engine run has a local clock starting at zero; an
// experiment segment may span several sequential runs (aging, setup
// corpora, the measured run). The timeline concatenates them: FlushRun
// closes the tail interval of the finished run, records a RunMark, and
// advances the segment offset so the next run's local times continue the
// same monotone axis.
//
// Interval width adapts: sampling starts at BaseInterval cycles, and
// whenever the interval count would exceed MaxIntervals, adjacent pairs
// merge and the period doubles — long runs settle between MaxIntervals/2
// and MaxIntervals intervals without knowing the run length up front. The
// schedule is a pure function of virtual time, so it is deterministic.
package timeline

import (
	"sort"
	"sync"

	"daxvm/internal/obs"
)

// DefaultBaseInterval is the initial sampling period in virtual cycles.
const DefaultBaseInterval = 65536

// DefaultMaxIntervals caps retained intervals per segment; crossing it
// merges adjacent pairs and doubles the period.
const DefaultMaxIntervals = 200

// Config tunes a Timeline.
type Config struct {
	// BaseInterval is the initial sampling period in virtual cycles
	// (default DefaultBaseInterval).
	BaseInterval uint64
	// MaxIntervals bounds intervals per segment (default
	// DefaultMaxIntervals); coalescing keeps the count in
	// [MaxIntervals/2, MaxIntervals].
	MaxIntervals int
	// Tracer, when set, receives an obs.EvCounter event per sample per
	// tracked series, rendering as Perfetto counter tracks on the same
	// timebase as the event slices.
	Tracer *obs.Tracer
	// TrackCounters names the registry counters to mirror as trace
	// counter tracks (the total cycle delta is always emitted as
	// "cycles").
	TrackCounters []string
}

// Timeline accumulates interval samples, one segment per experiment.
// All methods are nil-safe.
//
// A sampler wake reads the registry's counter and histogram slots and the
// cycle account's per-root totals into flat slices and diffs them slot by
// slot against the segment's previous reading; intervals store dense
// per-slot deltas, and names are resolved only on export. Steady-state
// wakes allocate nothing: the reading buffers swap, and intervals freed
// by coalescing are reused.
type Timeline struct {
	reg *obs.Registry
	cyc *obs.CycleAccount
	cfg Config

	mu         sync.Mutex
	done       []Export // finished segments, in StartSegment order
	cur        *segment
	gauges     []gaugeEntry // registration (slot) order
	gaugeOrder []int        // gauge slots in name order
	gaugeVals  []uint64     // per-wake scratch, by gauge slot
	scratch    reading      // per-wake scratch; swaps with the segment's previous reading
	trackSlots []int        // registry slot per cfg.TrackCounters entry, -1 while unregistered
	trackSeen  int          // registry counter count trackSlots was resolved against
	spare      []interval   // intervals released by coalescing or a finished segment, slices kept for reuse
}

// gaugeEntry is one registered saturation gauge. The Perfetto track name
// is interned at registration so sampling never concatenates strings.
type gaugeEntry struct {
	name  string
	track string // "gauge." + name
	fn    func(now uint64) uint64
}

// reading is one read of every sampled source, indexed by slot.
type reading struct {
	counters []uint64         // by registry counter slot
	hists    []obs.HistCounts // by registry histogram slot
	total    uint64           // cycle account total
	roots    []uint64         // by attribution root slot
}

// segment is one experiment's in-progress timeline.
type segment struct {
	id           string
	period       uint64
	offset       uint64 // absolute segment time of the current run's local zero
	lastBoundary uint64 // absolute time of the last sample
	intervals    []interval
	runs         []RunMark
	prev         reading
}

// interval holds one window's deltas (not absolute readings), plus the
// instantaneous gauge readings taken at sampler wakes that landed inside
// the window (sum and max across gaugeSamples wakes, so the mean
// survives coalescing). Slices are indexed by slot and may be shorter
// than the current slot count: a slot registered after the window closed
// has no delta in it.
type interval struct {
	start, end   uint64
	cycles       uint64
	counters     []uint64
	hists        []obs.HistCounts
	roots        []uint64
	gauges       []gaugeAcc // empty when no wake in the window sampled gauges
	gaugeSamples uint64
}

// gaugeAcc accumulates one gauge's readings inside one interval.
type gaugeAcc struct{ sum, max uint64 }

func (g *gaugeAcc) merge(o gaugeAcc) {
	g.sum += o.sum
	g.max = max(g.max, o.max)
}

// New creates a timeline sampling reg and cyc. Zero-value Config fields
// take the package defaults.
func New(reg *obs.Registry, cyc *obs.CycleAccount, cfg Config) *Timeline {
	if cfg.BaseInterval == 0 {
		cfg.BaseInterval = DefaultBaseInterval
	}
	if cfg.MaxIntervals == 0 {
		cfg.MaxIntervals = DefaultMaxIntervals
	}
	return &Timeline{reg: reg, cyc: cyc, cfg: cfg, trackSlots: make([]int, len(cfg.TrackCounters)), trackSeen: -1}
}

// Gauge registers a named saturation gauge: fn is read at every sampler
// wake with the engine-local virtual time and must be a pure snapshot —
// no cycle charges, no simulated-state mutation, no allocation (gauge
// readers are simlint hotalloc roots). Registering an existing name
// replaces its reader and keeps its slot, mirroring Registry.Counter, so
// sequentially booted kernels sharing one timeline always sample live
// state. Gauges are sampled in name order for deterministic trace
// emission.
func (tl *Timeline) Gauge(name string, fn func(now uint64) uint64) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	e := gaugeEntry{name: name, track: "gauge." + name, fn: fn}
	for i := range tl.gauges {
		if tl.gauges[i].name == name {
			tl.gauges[i] = e
			return
		}
	}
	tl.gauges = append(tl.gauges, e)
	tl.gaugeOrder = append(tl.gaugeOrder, len(tl.gauges)-1)
	sort.Slice(tl.gaugeOrder, func(i, j int) bool {
		return tl.gauges[tl.gaugeOrder[i]].name < tl.gauges[tl.gaugeOrder[j]].name
	})
	tl.gaugeVals = make([]uint64, len(tl.gauges))
}

// StartSegment finishes the current segment (if it recorded anything) and
// begins a new one labelled id, re-baselining the previous reading so the
// segment is identical whether the experiment runs alone or after others.
func (tl *Timeline) StartSegment(id string) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.finishLocked()
	tl.cur = tl.newSegment(id)
}

func (tl *Timeline) newSegment(id string) *segment {
	//lint:ignore hotalloc once per segment: a sampler wake opens one only when no segment was started
	s := &segment{id: id, period: tl.cfg.BaseInterval}
	tl.read(&s.prev)
	return s
}

func (tl *Timeline) finishLocked() {
	s := tl.cur
	tl.cur = nil
	if s == nil || (len(s.intervals) == 0 && len(s.runs) == 0) {
		return
	}
	tl.done = append(tl.done, tl.exportSegment(s))
	for _, iv := range s.intervals {
		tl.recycle(iv)
	}
}

// ensureLocked lazily opens an unnamed segment so a kernel booted without
// an explicit StartSegment still records.
func (tl *Timeline) ensureLocked() *segment {
	if tl.cur == nil {
		tl.cur = tl.newSegment("")
	}
	return tl.cur
}

// NextWake returns the engine-local virtual time of the next sample given
// the sampler's current local clock (sim.Engine.GoSampler's schedule
// callback).
func (tl *Timeline) NextWake(now uint64) uint64 {
	if tl == nil {
		return now + DefaultBaseInterval
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	s := tl.ensureLocked()
	next := s.lastBoundary + s.period
	if abs := s.offset + now; next <= abs {
		next = abs + s.period
	}
	return next - s.offset
}

// Sample records one interval ending at the sampler's current local time
// (sim.Engine.GoSampler's sample callback).
func (tl *Timeline) Sample(now uint64) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	s := tl.ensureLocked()
	tl.recordLocked(s, s.offset+now, now, true)
}

// FlushRun closes the tail interval of a finished engine run whose local
// clock reached localEnd, marks the run's span, and advances the segment
// offset so the next run continues the same axis. The kernel calls this
// after every engine run (aging, setup, measured), which is what makes the
// summed interval cycle deltas reconcile exactly against the engines'
// TotalCharged. Gauges are NOT read here: the engine has drained, so
// queue-depth readings at flush time would dilute the means with
// structural zeros.
func (tl *Timeline) FlushRun(label string, localEnd uint64) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	s := tl.ensureLocked()
	abs := s.offset + localEnd
	tl.recordLocked(s, abs, localEnd, false)
	if abs > s.offset {
		s.runs = append(s.runs, RunMark{Label: label, Start: s.offset, End: abs})
	}
	s.offset = abs
	s.lastBoundary = abs
}

// read fills r with the current counter, histogram and root readings.
func (tl *Timeline) read(r *reading) {
	r.counters = tl.reg.ReadCounters(r.counters)
	r.hists = tl.reg.ReadHists(r.hists)
	r.total, r.roots = tl.cyc.ReadRoots(r.roots)
}

// recordLocked closes the interval [s.lastBoundary, abs): it diffs the
// current reading against the previous one, emits counter-track trace
// events at the engine-local timestamp, and records the window. Empty
// windows advance the boundary without appending; a zero-width flush tail
// (work booked at the exact sample time after the sampler ran) folds into
// the previous interval so no cycles are lost. The previous reading
// advances on every call, empty windows included. When sample is true (a
// sampler wake, not a run flush) every registered gauge is read at the
// engine-local instant; readings in empty windows are dropped with the
// window, so per-interval means only average instants where work ran.
func (tl *Timeline) recordLocked(s *segment, abs, local uint64, sample bool) {
	cur, prev := &tl.scratch, &s.prev
	tl.read(cur)
	sampledGauges := sample && len(tl.gauges) > 0
	if sampledGauges {
		for _, g := range tl.gaugeOrder {
			tl.gaugeVals[g] = tl.gauges[g].fn(local)
		}
	}
	tl.emitTracks(local, cur, prev, sampledGauges)
	switch {
	case !active(cur, prev):
		s.lastBoundary = abs
	case abs == s.lastBoundary && len(s.intervals) > 0:
		tl.addWindow(&s.intervals[len(s.intervals)-1], cur, prev, sampledGauges)
	default:
		iv := tl.spareInterval()
		iv.start, iv.end = s.lastBoundary, abs
		tl.addWindow(&iv, cur, prev, sampledGauges)
		//lint:ignore hotalloc grows to MaxIntervals+1 once per segment; coalescing shrinks it in place
		s.intervals = append(s.intervals, iv)
		s.lastBoundary = abs
		if len(s.intervals) > tl.cfg.MaxIntervals {
			tl.coalesce(s)
		}
	}
	s.prev, tl.scratch = tl.scratch, s.prev
}

// active reports whether the window from prev to cur saw any activity:
// cycles, a counter increase or a histogram observation.
func active(cur, prev *reading) bool {
	if cur.total > prev.total {
		return true
	}
	for i, v := range cur.counters {
		if v > at(prev.counters, i) {
			return true
		}
	}
	for i := range cur.hists {
		if cur.hists[i].Count > histAt(prev.hists, i).Count {
			return true
		}
	}
	return false
}

// at returns s[i], or 0 for a slot registered after s was read.
func at(s []uint64, i int) uint64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

var emptyHist obs.HistCounts

// histAt is at for histogram readings.
func histAt(s []obs.HistCounts, i int) *obs.HistCounts {
	if i < len(s) {
		return &s[i]
	}
	return &emptyHist
}

// addWindow adds the window delta from prev to cur into iv, plus this
// wake's gauge readings when sampled.
func (tl *Timeline) addWindow(iv *interval, cur, prev *reading, sampledGauges bool) {
	iv.cycles += obs.SubClamp(cur.total, prev.total)
	iv.counters = grow(iv.counters, len(cur.counters))
	for i, v := range cur.counters {
		iv.counters[i] += obs.SubClamp(v, at(prev.counters, i))
	}
	iv.hists = grow(iv.hists, len(cur.hists))
	for i := range cur.hists {
		iv.hists[i].AddDelta(&cur.hists[i], histAt(prev.hists, i))
	}
	iv.roots = grow(iv.roots, len(cur.roots))
	for i, v := range cur.roots {
		iv.roots[i] += obs.SubClamp(v, at(prev.roots, i))
	}
	if sampledGauges {
		iv.gauges = grow(iv.gauges, len(tl.gaugeVals))
		for i, v := range tl.gaugeVals {
			iv.gauges[i].merge(gaugeAcc{sum: v, max: v})
		}
		iv.gaugeSamples++
	}
}

// merge folds the following interval b into iv.
func (iv *interval) merge(b *interval) {
	iv.end = b.end
	iv.cycles += b.cycles
	iv.counters = grow(iv.counters, len(b.counters))
	for i, v := range b.counters {
		iv.counters[i] += v
	}
	iv.hists = grow(iv.hists, len(b.hists))
	for i := range b.hists {
		iv.hists[i].Add(&b.hists[i])
	}
	iv.roots = grow(iv.roots, len(b.roots))
	for i, v := range b.roots {
		iv.roots[i] += v
	}
	iv.gauges = grow(iv.gauges, len(b.gauges))
	for i, g := range b.gauges {
		iv.gauges[i].merge(g)
	}
	iv.gaugeSamples += b.gaugeSamples
}

// grow extends s to length n with zeroed new elements, reusing its
// capacity; it never shrinks s.
func grow[T any](s []T, n int) []T {
	old := len(s)
	if n <= old {
		return s
	}
	if n > cap(s) {
		//lint:ignore hotalloc a fresh or recycled interval meeting slots it has not held yet; bounded by MaxIntervals+1 intervals per timeline
		ns := make([]T, n)
		copy(ns, s)
		return ns
	}
	s = s[:n]
	clear(s[old:])
	return s
}

// spareInterval returns an empty interval, reusing a recycled one's
// slices when there is one.
func (tl *Timeline) spareInterval() interval {
	n := len(tl.spare)
	if n == 0 {
		return interval{}
	}
	iv := tl.spare[n-1]
	tl.spare[n-1] = interval{}
	tl.spare = tl.spare[:n-1]
	return iv
}

// recycle empties iv and keeps its slices for spareInterval.
func (tl *Timeline) recycle(iv interval) {
	//lint:ignore hotalloc the spare list holds at most the intervals one segment ever had at once
	tl.spare = append(tl.spare, interval{
		counters: iv.counters[:0],
		hists:    iv.hists[:0],
		roots:    iv.roots[:0],
		gauges:   iv.gauges[:0],
	})
}

// emitTracks mirrors the window's headline deltas into the trace ring as
// counter events. Series order is the fixed config order (then gauge name
// order). Gauge tracks carry instantaneous readings, not window deltas,
// and interleave with the event slices on the same engine-local timebase.
func (tl *Timeline) emitTracks(local uint64, cur, prev *reading, sampledGauges bool) {
	tr := tl.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Emit(obs.EvCounter, 0, local, 0, "cycles", obs.SubClamp(cur.total, prev.total))
	if n := len(cur.counters); n != tl.trackSeen {
		for i, name := range tl.cfg.TrackCounters {
			tl.trackSlots[i] = tl.reg.CounterSlot(name)
		}
		tl.trackSeen = n
	}
	for i, name := range tl.cfg.TrackCounters {
		if slot := tl.trackSlots[i]; slot >= 0 {
			tr.Emit(obs.EvCounter, 0, local, 0, name, obs.SubClamp(cur.counters[slot], at(prev.counters, slot)))
		}
	}
	if sampledGauges {
		for _, g := range tl.gaugeOrder {
			tr.Emit(obs.EvCounter, 0, local, 0, tl.gauges[g].track, tl.gaugeVals[g])
		}
	}
}

// coalesce merges adjacent interval pairs in place, recycling the second
// of each pair, and doubles the period.
func (tl *Timeline) coalesce(s *segment) {
	n, j := len(s.intervals), 0
	for i := 0; i+1 < n; i += 2 {
		s.intervals[i].merge(&s.intervals[i+1])
		tl.recycle(s.intervals[i+1])
		s.intervals[j] = s.intervals[i]
		j++
	}
	if n%2 == 1 {
		s.intervals[j] = s.intervals[n-1]
		j++
	}
	s.intervals = s.intervals[:j]
	s.period *= 2
}
