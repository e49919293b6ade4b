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

	mu     sync.Mutex
	live   []*engineReader // engines registered for a run in progress
	folded engineCounts    // growth of engine runs that have ended
}

// Engine is the read side of a running simulation engine: sim.Engine,
// which imports obs and so cannot be named here.
type Engine interface {
	TotalCharged() uint64
	Events() uint64
	Switches() uint64
}

// engineCounts is one reading of an Engine's counters.
type engineCounts struct{ total, events, switches uint64 }

func readEngine(e Engine) engineCounts {
	return engineCounts{e.TotalCharged(), e.Events(), e.Switches()}
}

// plus returns c + (now - base), the growth of one engine since its
// registration added to c.
func (c engineCounts) plus(now, base engineCounts) engineCounts {
	return engineCounts{
		total:    c.total + now.total - base.total,
		events:   c.events + now.events - base.events,
		switches: c.switches + now.switches - base.switches,
	}
}

// engineReader is one running engine and its counters at registration.
type engineReader struct {
	e    Engine
	base engineCounts
}

// New creates an observability hub with a trace ring of traceCap events
// (0 selects DefaultTraceCap).
func New(traceCap int) *Obs {
	if traceCap == 0 {
		traceCap = DefaultTraceCap
	}
	return &Obs{Reg: NewRegistry(), Trace: NewTracer(traceCap), Cycles: NewCycleAccount()}
}

// AddEngine registers one engine for the duration of a run. Every engine
// whose charges feed Cycles must be registered while it runs (the kernel
// does this around each run), so EnginesTotal is the reconciliation
// target for CycleAccount.Total. The returned fold, called when the run
// ends, adds the engine's growth since registration to plain counters
// and drops the reader, so the hub does not keep finished engines (and
// the kernels behind them) reachable.
func (o *Obs) AddEngine(e Engine) (fold func()) {
	if o == nil {
		return func() {}
	}
	r := &engineReader{e: e, base: readEngine(e)}
	o.mu.Lock()
	o.live = append(o.live, r)
	o.mu.Unlock()
	return func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.folded = o.folded.plus(readEngine(r.e), r.base)
		for i, l := range o.live {
			if l == r {
				o.live = append(o.live[:i], o.live[i+1:]...)
				break
			}
		}
	}
}

// engines sums the growth of every registered engine, running or folded.
func (o *Obs) engines() engineCounts {
	if o == nil {
		return engineCounts{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.folded
	for _, r := range o.live {
		s = s.plus(readEngine(r.e), r.base)
	}
	return s
}

// EnginesTotal sums the cycles charged by every registered engine.
func (o *Obs) EnginesTotal() uint64 { return o.engines().total }

// EnginesEvents sums the event counts of every registered engine: the
// deterministic numerator of the host-side events/sec speed metric.
func (o *Obs) EnginesEvents() uint64 { return o.engines().events }

// EnginesSwitches sums the dispatch switches of every registered engine
// (see sim.Engine.Switches): host-only, printed beside the events.
func (o *Obs) EnginesSwitches() uint64 { return o.engines().switches }
