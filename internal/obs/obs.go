// Package obs is the unified observability layer of the simulated machine:
// a metrics registry where every subsystem publishes its counters under a
// dotted namespace (tlb.shootdowns, mm.lock.wait_cycles, ext4.journal.commits,
// core.prezero.batches, ...), log2-bucket histograms for latency
// distributions (page walks, fault service), and a bounded virtual-time
// event tracer exportable as Chrome trace-event JSON (one track per
// simulated core, viewable in Perfetto).
//
// The package is dependency-free by design: subsystems pass virtual
// timestamps and core ids explicitly, so every layer of the simulator —
// sim engine, MMU, TLB, file systems, DaxVM extension — can emit without
// import cycles. All entry points are nil-receiver safe, so an unwired
// subsystem pays one branch.
package obs

import "sync"

// DefaultTraceCap bounds the event ring when the caller does not choose:
// large enough to hold the tail of any experiment, small enough that an
// always-on tracer is free.
const DefaultTraceCap = 1 << 16

// Obs bundles the registry, tracer and cycle account one machine (or one
// experiment run, when shared across machines) collects into.
type Obs struct {
	Reg    *Registry
	Trace  *Tracer
	Cycles *CycleAccount

	mu           sync.Mutex
	live         []*engineReader // engines registered for a run in progress
	foldedTotal  uint64          // cycles of engine runs that have ended
	foldedEvents uint64          // events of engine runs that have ended
}

// engineReader reads one running engine's totals relative to their values
// at registration.
type engineReader struct {
	total, events   func() uint64
	total0, events0 uint64
}

// New creates an observability hub with a trace ring of traceCap events
// (0 selects DefaultTraceCap).
func New(traceCap int) *Obs {
	if traceCap == 0 {
		traceCap = DefaultTraceCap
	}
	return &Obs{Reg: NewRegistry(), Trace: NewTracer(traceCap), Cycles: NewCycleAccount()}
}

// AddEngine registers one engine's running totals for the duration of a
// run: total reads its charged cycles and events its event count (see
// sim.Engine.TotalCharged and Events). Every engine whose charges feed
// Cycles must be registered while it runs (the kernel does this around
// each run), so EnginesTotal is the reconciliation target for
// CycleAccount.Total. The returned fold, called when the run ends, adds
// the engine's growth since registration to plain counters and drops the
// readers, so the hub does not keep finished engines (and the kernels
// behind them) reachable. Kept as func values to stay dependency-free.
func (o *Obs) AddEngine(total, events func() uint64) (fold func()) {
	if o == nil {
		return func() {}
	}
	r := &engineReader{total: total, events: events, total0: total(), events0: events()}
	o.mu.Lock()
	o.live = append(o.live, r)
	o.mu.Unlock()
	return func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.foldedTotal += r.total() - r.total0
		o.foldedEvents += r.events() - r.events0
		for i, l := range o.live {
			if l == r {
				o.live = append(o.live[:i], o.live[i+1:]...)
				break
			}
		}
	}
}

// EnginesTotal sums the cycles charged by every registered engine, running
// or folded.
func (o *Obs) EnginesTotal() uint64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.foldedTotal
	for _, r := range o.live {
		s += r.total() - r.total0
	}
	return s
}

// EnginesEvents sums the event counts of every registered engine, running
// or folded: the deterministic numerator of the host-side events/sec
// speed metric.
func (o *Obs) EnginesEvents() uint64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.foldedEvents
	for _, r := range o.live {
		s += r.events() - r.events0
	}
	return s
}
