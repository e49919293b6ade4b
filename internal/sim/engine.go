// Package sim is a deterministic discrete-event simulation engine for
// virtual-time multicore execution.
//
// Every simulated hardware thread is a goroutine, but exactly one runs at a
// time: threads cooperatively hand a token to the runnable thread with the
// smallest virtual clock. Pure-local work just advances the local clock
// (Charge); only operations that touch shared state (locks, IPIs, wakeups)
// are synchronization points. Because the scheduler always resumes the
// minimum-clock runnable thread, shared-state events are processed in
// virtual-time order, which makes lock-contention behaviour — the central
// quantity in the DaxVM paper's scalability experiments — emerge from the
// model rather than from a formula, while remaining fully deterministic.
//
// The ready queue and the observability emission policy live behind the
// Scheduler interface (sched.go): New builds the sequential reference
// scheduler, NewSharded the sharded epoch scheduler that offloads
// charge-sink and span bookkeeping to host worker goroutines (shard.go)
// while dispatching the model in exactly the same (wakeAt, seq) order.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"daxvm/internal/obs"
)

// Engine owns the virtual-time scheduler.
type Engine struct {
	sched    Scheduler
	seq      uint64
	live     int // non-daemon threads still running
	threads  []*Thread
	done     chan struct{}
	stopping bool
	maxClock uint64
	panicVal any

	// charged accumulates every cycle booked through Charge/ChargeAs/
	// AddRemote on any thread. Idle and lock-wait time (wakeAt clamping in
	// dispatch) is excluded: it is scheduling, not work.
	charged uint64
	// events counts scheduling pushes plus charges — a deterministic
	// proxy for "how much the engine did", used as the numerator of the
	// host-side events/sec speed metric. It never feeds back into
	// simulated behaviour.
	events uint64
	// obsSeq stamps every deferred observability record with its global
	// emission order. Only the sharded scheduler advances it; the model
	// side is single-threaded, so no atomics are needed.
	obsSeq uint64
	// sink, when set, receives every charge with its attribution path
	// (see Thread.PushAttr) — the hook the cycle profiler attaches to.
	sink func(core int, path obs.Path, cycles uint64)
	// bulkSink, when set alongside sink, lets the sharded scheduler
	// replace per-record sink calls with pre-aggregated (path, core)
	// partials computed in parallel by the shard workers. The sequential
	// scheduler ignores it. The aggregate must be addition-commutative
	// (obs.CycleAccount.BookN is), so the final sink state is identical
	// to per-record application.
	bulkSink func(core int, path obs.Path, cycles, count uint64)
	// observer, when set, additionally receives every charge together
	// with the charging thread — the hook the span layer attaches to.
	// remote marks cycles booked onto this thread by another thread
	// (AddRemote): they belong to the target's timeline but not to any
	// operation the target itself is executing.
	observer func(t *Thread, path obs.Path, cycles uint64, remote bool)
	// applier, when set, receives deferred span records (ObsRecord) in
	// emission order on sharded engines. Sequential engines never defer,
	// so Thread.DeferObs reports false and callers take their inline path.
	applier func(rec ObsRecord)
	// joins caches label -> path id resolutions so that a steady-state
	// frame push or labelled charge neither builds nor hashes a string:
	// joins[0] holds whole names (top-level labels, AddRemote paths),
	// joins[p+1] the children of path p. Each entry is a short list
	// scanned by string equality; labels are mostly constants, so the
	// comparison usually hits on pointer equality. Misses go to the
	// process-wide interner (obs.InternPath/JoinPath). Safe without a
	// lock: exactly one thread of an engine runs at a time.
	joins [][]pathJoin
}

// pathJoin is one cached label resolution.
type pathJoin struct {
	label string
	path  obs.Path
}

// stopToken is panicked into parked daemon threads at shutdown.
type stopToken struct{}

// New creates an empty engine with the sequential reference scheduler.
func New() *Engine {
	e := &Engine{done: make(chan struct{})}
	e.sched = &seqScheduler{e: e}
	return e
}

// NewSharded creates an engine whose cores are partitioned into shards
// (contiguous blocks), each owning its own ready heap and host worker
// goroutine for observability offload. Model dispatch order — and every
// artifact byte — is identical to New's sequential scheduler; see
// shard.go for what does and does not parallelize, and why.
func NewSharded(shards, cores int) *Engine {
	e := &Engine{done: make(chan struct{})}
	e.sched = newShardScheduler(e, shards, cores)
	return e
}

// Thread is one simulated hardware thread.
type Thread struct {
	e       *Engine
	Name    string
	Core    int
	clock   uint64
	wakeAt  uint64
	seq     uint64
	index   int // heap index, -1 when not queued
	resume  chan struct{}
	state   threadState
	daemon  bool
	started bool
	// obsReader marks sampler daemons that read observability state
	// (cycle-account snapshots): the scheduler forces any deferred
	// emissions to drain before dispatching one, so a sampled snapshot is
	// identical to the sequential scheduler's at the same virtual time.
	obsReader bool
	fn        func(*Thread)

	// attr is the attribution-frame stack: each element is the id of
	// one open frame's full dotted path ("app.syscall.write", ...).
	// Charges book against the innermost frame.
	attr []obs.Path

	// blockedOn is a human-readable tag for deadlock dumps.
	blockedOn string
}

// Unattributed is the path charges book against outside any frame.
const Unattributed = "unattributed"

var unattributed = obs.InternPath(Unattributed)

type threadState uint8

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateExited
)

// Go registers a new simulated thread pinned to the given core, ready to
// run at virtual time start. It may be called before Run or from within a
// running thread (in which case start is clamped to the caller's clock by
// the caller passing t.Now()).
func (e *Engine) Go(name string, core int, start uint64, fn func(*Thread)) *Thread {
	t := &Thread{
		e:      e,
		Name:   name,
		Core:   core,
		clock:  start,
		wakeAt: start,
		resume: make(chan struct{}),
		index:  -1,
		fn:     fn,
	}
	e.threads = append(e.threads, t)
	e.live++
	e.push(t)
	return t
}

// GoDaemon registers a background thread that does not keep the simulation
// alive: when the last non-daemon thread exits, daemons are torn down.
func (e *Engine) GoDaemon(name string, core int, start uint64, fn func(*Thread)) *Thread {
	t := e.Go(name, core, start, fn)
	t.daemon = true
	e.live--
	return t
}

// GoSampler registers a daemon that calls fn at the virtual times chosen
// by next (given the current clock, return the next sample time; returns
// <= now are clamped one cycle forward so the daemon always makes
// progress). The sampler charges no cycles and must not touch simulated
// shared state, so its presence leaves every other thread's timeline
// bit-identical; it is torn down with the other daemons at shutdown.
// Samplers are observability readers: on a sharded engine, deferred
// charge/span records drain before each of their dispatches.
func (e *Engine) GoSampler(name string, core int, next func(now uint64) uint64, fn func(now uint64)) *Thread {
	t := e.GoDaemon(name, core, 0, func(t *Thread) {
		for {
			at := next(t.Now())
			if at <= t.Now() {
				at = t.Now() + 1
			}
			t.SleepUntil(at)
			fn(t.Now())
		}
	})
	t.obsReader = true
	return t
}

// Run executes the simulation until every non-daemon thread has exited.
// It returns the largest virtual clock reached by any thread.
func (e *Engine) Run() uint64 {
	if e.live == 0 {
		return 0
	}
	first := e.pop()
	if first == nil {
		panic("sim: no runnable thread")
	}
	first.state = stateRunning
	first.resumeOrStart()
	<-e.done
	// Apply every deferred observability record and join the host
	// workers before the caller reads sinks/observers or reuses them on
	// another engine.
	e.sched.stop()
	if e.panicVal != nil {
		panic(e.panicVal)
	}
	return e.maxClock
}

// main is the goroutine body wrapping a thread function.
func (t *Thread) main() {
	<-t.resume // wait for first dispatch
	completed := false
	defer func() {
		r := recover()
		if _, ok := r.(stopToken); ok {
			return // engine shutdown
		}
		if r == nil && completed {
			return
		}
		if r == nil {
			// The goroutine is unwinding via runtime.Goexit (e.g. a
			// t.Fatalf inside a thread function). Surface it instead of
			// hanging Run forever.
			r = "sim: thread " + t.Name + " exited abnormally (runtime.Goexit — t.Fatalf inside a sim thread?)"
		}
		// Propagate the failure to Run() and unwind the whole
		// simulation so tests can observe it.
		t.e.panicVal = r
		t.state = stateExited
		t.e.shutdown()
	}()
	t.fn(t)
	completed = true
	t.exit()
}

func (t *Thread) exit() {
	e := t.e
	t.state = stateExited
	if t.clock > e.maxClock {
		e.maxClock = t.clock
	}
	if !t.daemon {
		e.live--
	}
	if e.live == 0 {
		e.shutdown()
		return
	}
	e.dispatchFrom(t, false)
}

// shutdown tears down parked daemon goroutines and signals Run. It runs on
// the goroutine of the last exiting non-daemon thread. Parked threads are
// resumed; they observe stopping and unwind via a stopToken panic that
// their main() recovers, so no goroutines leak across engine instances.
func (e *Engine) shutdown() {
	if e.stopping {
		return
	}
	e.stopping = true
	for _, t := range e.threads {
		if t.state == stateExited || !t.started || t.state == stateRunning {
			continue
		}
		t.resume <- struct{}{}
	}
	close(e.done)
}

// Now returns the thread's virtual clock in cycles.
func (t *Thread) Now() uint64 { return t.clock }

// SetChargeSink routes every subsequent charge on any thread of this
// engine (with its attribution path and core) to fn. Pass nil to detach.
func (e *Engine) SetChargeSink(fn func(core int, path obs.Path, cycles uint64)) { e.sink = fn }

// SetChargeBulkSink registers an aggregate form of the charge sink: on a
// sharded engine, shard workers pre-aggregate deferred charges into
// (path, core) partials in parallel and fn receives each partial's
// summed cycles and call count instead of one sink call per charge. fn
// must be addition-commutative with the plain sink (CycleAccount.BookN
// is), so the final state is identical either way. Sequential engines
// ignore it. Set it together with SetChargeSink.
func (e *Engine) SetChargeBulkSink(fn func(core int, path obs.Path, cycles, count uint64)) {
	e.bulkSink = fn
}

// SetChargeObserver routes every subsequent charge, together with the
// thread it books onto, to fn (nil detaches). The span layer attaches
// here: unlike the sink it needs thread identity to resolve the open
// span stack. remote is true for AddRemote bookings, which advance the
// target thread's clock without being work that thread initiated.
func (e *Engine) SetChargeObserver(fn func(t *Thread, path obs.Path, cycles uint64, remote bool)) {
	e.observer = fn
}

// SetObsApplier registers the consumer of deferred span records on a
// sharded engine (span.Collector.Apply). Records reach fn in exact
// emission order, merged across shards by their sequence stamps. On a
// sequential engine fn is never called: Thread.DeferObs reports false
// and the span layer takes its inline path. A span layer that attaches
// a charge observer to a sharded engine must register its applier too:
// observer calls are deferred, so span-stack updates applied inline
// would otherwise interleave with them out of emission order.
func (e *Engine) SetObsApplier(fn func(rec ObsRecord)) { e.applier = fn }

// TotalCharged reports the cycles booked through Charge/ChargeAs/AddRemote
// across all threads so far. Because dispatch clamps idle threads forward
// without charging, this is exactly the engine's total simulated work —
// the quantity a cycle profile must reconcile against.
func (e *Engine) TotalCharged() uint64 { return e.charged }

// ReadyDepth reports how many threads sit in the run queue right now —
// the engine-level saturation gauge. A stopping engine reports 0: during
// shutdown, exited threads can linger in the heap and would otherwise
// read as phantom runnable work. Pure read for gauge sampling.
func (e *Engine) ReadyDepth() int {
	if e.stopping {
		return 0
	}
	return e.sched.readyDepth()
}

// Events reports the deterministic engine-event count (scheduling pushes
// plus charges) accumulated so far. Dividing it by host wall-clock seconds
// yields the simulator's events/sec speed — the denominator is host time,
// but this numerator is reproducible bit-for-bit.
func (e *Engine) Events() uint64 { return e.events }

// resolve returns the id of label in cache slot slot: under path
// slot-1, or as a whole name when slot is 0 (see Engine.joins).
func (e *Engine) resolve(slot int, label string) obs.Path {
	if slot >= len(e.joins) {
		//lint:ignore hotalloc join cache: grows to the process-wide path count once per engine
		e.joins = append(e.joins, make([][]pathJoin, slot+1-len(e.joins))...)
	}
	for _, j := range e.joins[slot] {
		if j.label == label {
			return j.path
		}
	}
	var p obs.Path
	if slot == 0 {
		p = obs.InternPath(label)
	} else {
		p = obs.JoinPath(obs.Path(slot-1), label)
	}
	//lint:ignore hotalloc join cache: one entry per unique (parent, label) pair per engine
	e.joins[slot] = append(e.joins[slot], pathJoin{label, p})
	return p
}

// child returns the path label resolves to under the innermost frame,
// or label itself as a root with no frame open.
func (t *Thread) child(label string) obs.Path {
	slot := 0
	if n := len(t.attr); n > 0 {
		slot = int(t.attr[n-1]) + 1
	}
	return t.e.resolve(slot, label)
}

// PushAttr opens an attribution frame: label nests under the current path
// ("fault.wp" inside "app.access" books as "app.access.fault.wp"); with no
// open frame the label becomes a root.
func (t *Thread) PushAttr(label string) {
	p := t.child(label)
	//lint:ignore hotalloc attribution stack: reaches its steady nesting depth after warm-up
	t.attr = append(t.attr, p)
}

// PopAttr closes the innermost attribution frame.
func (t *Thread) PopAttr() { t.attr = t.attr[:len(t.attr)-1] }

// attrPath returns the innermost frame's path id.
func (t *Thread) attrPath() obs.Path {
	if n := len(t.attr); n > 0 {
		return t.attr[n-1]
	}
	return unattributed
}

// AttrPath returns the innermost frame's full dotted path.
func (t *Thread) AttrPath() string { return t.attrPath().String() }

// Charge advances the thread's clock by c cycles of local work, booked
// against the current attribution frame.
func (t *Thread) Charge(c uint64) {
	t.clock += c
	t.e.charged += c
	t.e.events++
	if t.e.sink != nil || t.e.observer != nil {
		t.e.sched.emitCharge(t, t.attrPath(), c, false)
	}
}

// ChargeAs books c under a one-shot child of the current frame — the cheap
// way to label leaf costs (walk kinds, nt-stores) without stack churn. The
// path is only resolved when a sink or observer is attached.
func (t *Thread) ChargeAs(label string, c uint64) {
	t.clock += c
	t.e.charged += c
	t.e.events++
	if t.e.sink != nil || t.e.observer != nil {
		t.e.sched.emitCharge(t, t.child(label), c, false)
	}
}

// AddRemote is used by remote-charge mechanisms (IPIs): the running thread
// books c onto this (target) thread's timeline, attributed to path on the
// target's core rather than to the caller's frame.
func (t *Thread) AddRemote(path string, c uint64) {
	t.clock += c
	t.e.charged += c
	t.e.events++
	if t.e.sink != nil || t.e.observer != nil {
		t.e.sched.emitCharge(t, t.e.resolve(0, path), c, true)
	}
}

// DeferObs offers an observability record (a span Begin/End/Wait) to the
// scheduler for deferred in-order application. It reports false on a
// sequential engine — or when no applier is registered — in which case
// the caller must apply the record inline itself. Records must capture
// everything order-sensitive (notably t.Now()) at emission time.
func (t *Thread) DeferObs(rec ObsRecord) bool {
	return t.e.sched.deferRecord(rec)
}

// Yield is a synchronization point: the thread re-enters the ready queue at
// its current clock and resumes once it is the minimum-clock runnable
// thread. Shared state must only be examined/mutated right after a Yield
// (or while holding a sim lock) to preserve virtual-time ordering.
func (t *Thread) Yield() {
	e := t.e
	t.wakeAt = t.clock
	e.push(t)
	e.dispatchFrom(t, true)
}

// SleepUntil parks the thread until virtual time tm.
func (t *Thread) SleepUntil(tm uint64) {
	if tm < t.clock {
		tm = t.clock
	}
	t.wakeAt = tm
	t.e.push(t)
	t.e.dispatchFrom(t, true)
}

// Sleep parks the thread for d cycles.
func (t *Thread) Sleep(d uint64) { t.SleepUntil(t.clock + d) }

// Block parks the thread off the ready queue. Another thread must Wake it.
// tag describes what it is waiting for (deadlock dumps).
func (t *Thread) Block(tag string) {
	t.blockedOn = tag
	t.state = stateBlocked
	t.e.dispatchFrom(t, true)
	t.blockedOn = ""
}

// Wake makes a blocked thread runnable no earlier than virtual time at.
// Must be called by the running thread.
func (e *Engine) Wake(t *Thread, at uint64) {
	if t.state != stateBlocked {
		//lint:ignore hotalloc fatal path: the concat only runs when panicking
		panic("sim: Wake of non-blocked thread " + t.Name)
	}
	if at < t.clock {
		at = t.clock
	}
	t.wakeAt = at
	e.push(t)
}

// dispatchFrom hands the token to the next runnable thread. If wait is
// true the calling thread parks until re-dispatched; otherwise the caller
// is exiting.
func (e *Engine) dispatchFrom(t *Thread, wait bool) {
	next := e.pop()
	if next == nil {
		if wait || e.live > 0 {
			//lint:ignore hotalloc fatal path: the concat only runs when panicking
			panic("sim: deadlock\n" + e.dump())
		}
		// Exiting last thread with nothing runnable and live==0 was
		// handled in exit(); reaching here is a bug.
		panic("sim: scheduler underflow")
	}
	if next.obsReader {
		// An observability reader is about to run: force every deferred
		// charge/span record to land first so its snapshot reads are
		// byte-identical to the sequential scheduler's.
		e.sched.drain()
	}
	if next == t {
		// Fast path: we are still the minimum-clock thread.
		if t.clock < t.wakeAt {
			t.clock = t.wakeAt
		}
		t.state = stateRunning
		return
	}
	next.state = stateRunning
	if next.clock < next.wakeAt {
		next.clock = next.wakeAt
	}
	next.resumeOrStart()
	if !wait {
		return
	}
	<-t.resume
	if e.stopping {
		panic(stopToken{})
	}
	t.state = stateRunning
	if t.clock < t.wakeAt {
		t.clock = t.wakeAt
	}
}

// resumeOrStart resumes a parked thread, starting its goroutine lazily the
// first time it is dispatched.
func (t *Thread) resumeOrStart() {
	if t.state == stateExited {
		panic("sim: resuming exited thread")
	}
	if !t.started {
		t.started = true
		// The scheduler's own token handoff: exactly one goroutine runs at
		// a time, so this spawn cannot race.
		//lint:ignore determinism token-handoff scheduler owns this spawn
		go t.main()
	}
	t.resume <- struct{}{}
}

// dump formats the scheduler state for deadlock diagnostics: per thread,
// its state, its innermost attribution path (what it was doing when it
// parked) and — on a sharded engine — the shard it dispatches on.
func (e *Engine) dump() string {
	var b strings.Builder
	ts := append([]*Thread(nil), e.threads...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].seq < ts[j].seq })
	for _, t := range ts {
		st := "?"
		switch t.state {
		case stateReady:
			st = "ready"
		case stateRunning:
			st = "running"
		case stateBlocked:
			st = "blocked on " + t.blockedOn
		case stateExited:
			st = "exited"
		}
		fmt.Fprintf(&b, "  %-24s core=%-3d", t.Name, t.Core)
		if sh := e.sched.shardOf(t.Core); sh >= 0 {
			fmt.Fprintf(&b, " shard=%-2d", sh)
		}
		fmt.Fprintf(&b, " clock=%-12d attr=%-28s %s\n", t.clock, t.AttrPath(), st)
	}
	return b.String()
}

// MaxClock reports the largest clock observed (valid after Run).
func (e *Engine) MaxClock() uint64 { return e.maxClock }

// Threads returns a copy of the registered-thread list (for core->thread
// lookups). Copying keeps the scheduler's own slice unaliased: a caller
// appending to or reordering the returned slice cannot corrupt dispatch
// state. The *Thread values themselves are shared, as intended.
func (e *Engine) Threads() []*Thread {
	out := make([]*Thread, len(e.threads))
	copy(out, e.threads)
	return out
}

func (e *Engine) push(t *Thread) {
	e.seq++
	e.events++
	t.seq = e.seq
	t.state = stateReady
	e.sched.push(t)
}

func (e *Engine) pop() *Thread {
	return e.sched.pop()
}
