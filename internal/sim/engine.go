//go:build go1.23

// Package sim is a deterministic discrete-event simulation engine for
// virtual-time multicore execution.
//
// Every simulated hardware thread is a coroutine (iter.Pull) driven by
// Engine.Run: the driver resumes the runnable thread with the smallest
// virtual clock, and that thread runs until it switches back at a
// synchronization point, so exactly one runs at a time. Pure-local work
// just advances the local clock (Charge); only operations that touch
// shared state (locks, IPIs, wakeups) are synchronization points.
// Because the scheduler always resumes the minimum-clock runnable thread,
// shared-state events are processed in virtual-time order, which makes
// lock-contention behaviour — the central quantity in the DaxVM paper's
// scalability experiments — emerge from the model rather than from a
// formula, while remaining fully deterministic.
//
// The observability hooks (charge sink and observer) run inline on the
// charging thread's coroutine: every coroutine switch is a happens-before
// edge, so the hub behind them is single-writer by construction and needs
// no locks.
//
// The go1.23 constraint is for iter.Pull; it lets go.mod keep declaring
// an older language version.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"daxvm/internal/obs"
)

// Engine owns the virtual-time scheduler.
type Engine struct {
	ready    threadHeap
	seq      uint64
	live     int // non-daemon threads still running
	threads  []*Thread
	stopping bool
	maxClock uint64
	// switches counts the driver's dispatches, each a coroutine switch
	// into a thread other than the one that last ran (fast-path
	// continuations in dispatchFrom are not switches). Host-only, like
	// events.
	switches uint64

	// charged accumulates every cycle booked through Charge/ChargeAs/
	// AddRemote on any thread. Idle and lock-wait time (wakeAt clamping in
	// dispatch) is excluded: it is scheduling, not work.
	charged uint64
	// events counts scheduling pushes plus charges — a deterministic
	// proxy for "how much the engine did", used as the numerator of the
	// host-side events/sec speed metric. It never feeds back into
	// simulated behaviour.
	events uint64
	// sink, when set, receives every charge with its attribution path
	// (see Thread.PushAttr) — the hook the cycle profiler attaches to.
	sink func(core int, path obs.Path, cycles uint64)
	// observer, when set, additionally receives every charge together
	// with the charging thread — the hook the span layer attaches to.
	// remote marks cycles booked onto this thread by another thread
	// (AddRemote): they belong to the target's timeline but not to any
	// operation the target itself is executing.
	observer func(t *Thread, path obs.Path, cycles uint64, remote bool)
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

// stopToken is panicked into parked threads at shutdown; the thread's
// body recovers it.
type stopToken struct{}

// New creates an empty engine.
func New() *Engine { return &Engine{} }

// Thread is one simulated hardware thread.
type Thread struct {
	e      *Engine
	Name   string
	Core   int
	clock  uint64
	wakeAt uint64
	seq    uint64
	index  int // heap index, -1 when not queued
	state  threadState
	daemon bool
	fn     func(*Thread)

	// next resumes the thread's coroutine until it switches back to the
	// driver (ok is false once fn has returned), stop unwinds it, and
	// yield is the coroutine's switch back. next is nil until the first
	// dispatch starts the coroutine.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

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
func (e *Engine) GoSampler(name string, core int, next func(now uint64) uint64, fn func(now uint64)) *Thread {
	return e.GoDaemon(name, core, 0, func(t *Thread) {
		for {
			at := next(t.Now())
			if at <= t.Now() {
				at = t.Now() + 1
			}
			t.SleepUntil(at)
			fn(t.Now())
		}
	})
}

// Run executes the simulation until every non-daemon thread has exited.
// It returns the largest virtual clock reached by any thread. Run is the
// driver: it pops the minimum-(wakeAt, seq) thread and resumes its
// coroutine until the thread yields, blocks, sleeps or exits. A thread's
// panic, and its runtime.Goexit, propagate to Run's caller after every
// other thread has been unwound.
func (e *Engine) Run() uint64 {
	if e.live == 0 {
		return 0
	}
	defer e.shutdown()
	for e.live > 0 {
		t := e.ready.pop()
		if t == nil {
			panic("sim: deadlock\n" + e.dump())
		}
		t.state = stateRunning
		if t.clock < t.wakeAt {
			t.clock = t.wakeAt
		}
		if t.next == nil {
			t.next, t.stop = iter.Pull(t.body)
		}
		e.switches++
		if _, ok := t.next(); !ok {
			t.exit()
		}
	}
	return e.maxClock
}

// body is the coroutine wrapping a thread function. It swallows only the
// shutdown sentinel; any other panic leaves through next to Run's caller.
func (t *Thread) body(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopToken); !ok {
				panic(r)
			}
		}
	}()
	t.fn(t)
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
}

// shutdown unwinds every started thread that has not exited (parked
// daemons, or every thread after a panic or deadlock), one at a time in
// registration order: stop resumes the coroutine with a failed yield,
// which panics a stopToken through the thread's deferred calls. So each
// thread's deferred calls finish before Run returns, no coroutine leaks
// across engine instances, and none runs concurrently with the caller.
func (e *Engine) shutdown() {
	e.stopping = true
	for _, t := range e.threads {
		if t.stop != nil && t.state != stateExited {
			t.stop()
		}
	}
}

// Now returns the thread's virtual clock in cycles.
func (t *Thread) Now() uint64 { return t.clock }

// SetChargeSink routes every subsequent charge on any thread of this
// engine (with its attribution path and core) to fn. Pass nil to detach.
// fn runs inside the charging thread, one call at a time.
func (e *Engine) SetChargeSink(fn func(core int, path obs.Path, cycles uint64)) { e.sink = fn }

// SetChargeObserver routes every subsequent charge, together with the
// thread it books onto, to fn (nil detaches). The span layer attaches
// here: unlike the sink it needs thread identity to resolve the open
// span stack. remote is true for AddRemote bookings, which advance the
// target thread's clock without being work that thread initiated.
func (e *Engine) SetChargeObserver(fn func(t *Thread, path obs.Path, cycles uint64, remote bool)) {
	e.observer = fn
}

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
	return e.ready.len()
}

// Switches reports how many times the driver has resumed a thread other
// than the one that last ran — the host's coroutine switches, as opposed
// to Events, which also counts charges and fast-path continuations.
// Host-only: it never feeds back into simulated behaviour.
func (e *Engine) Switches() uint64 { return e.switches }

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

// emit delivers one charge to the sink and the observer.
func (e *Engine) emit(t *Thread, path obs.Path, cycles uint64, remote bool) {
	if e.sink != nil {
		e.sink(t.Core, path, cycles)
	}
	if e.observer != nil {
		e.observer(t, path, cycles, remote)
	}
}

// Charge advances the thread's clock by c cycles of local work, booked
// against the current attribution frame.
func (t *Thread) Charge(c uint64) {
	t.clock += c
	t.e.charged += c
	t.e.events++
	if t.e.sink != nil || t.e.observer != nil {
		t.e.emit(t, t.attrPath(), c, false)
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
		t.e.emit(t, t.child(label), c, false)
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
		t.e.emit(t, t.e.resolve(0, path), c, true)
	}
}

// Yield is a synchronization point: the thread re-enters the ready queue at
// its current clock and resumes once it is the minimum-clock runnable
// thread. Shared state must only be examined/mutated right after a Yield
// (or while holding a sim lock) to preserve virtual-time ordering.
func (t *Thread) Yield() {
	e := t.e
	t.wakeAt = t.clock
	e.push(t)
	e.dispatchFrom(t)
}

// SleepUntil parks the thread until virtual time tm.
func (t *Thread) SleepUntil(tm uint64) {
	if tm < t.clock {
		tm = t.clock
	}
	t.wakeAt = tm
	t.e.push(t)
	t.e.dispatchFrom(t)
}

// Sleep parks the thread for d cycles.
func (t *Thread) Sleep(d uint64) { t.SleepUntil(t.clock + d) }

// Block parks the thread off the ready queue. Another thread must Wake it.
// tag describes what it is waiting for (deadlock dumps).
func (t *Thread) Block(tag string) {
	t.blockedOn = tag
	t.state = stateBlocked
	t.park()
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

// dispatchFrom runs after t has queued itself: if t is still the
// minimum-clock thread it keeps running without a switch, otherwise it
// parks until the driver dispatches it again.
func (e *Engine) dispatchFrom(t *Thread) {
	if e.ready.ts[0] != t {
		t.park()
		return
	}
	e.ready.pop()
	t.state = stateRunning
	if t.clock < t.wakeAt {
		t.clock = t.wakeAt
	}
}

// park switches back to the driver until t is dispatched again; the
// driver has set t running and clamped its clock by then. A failed
// switch means the engine is shutting down: unwind.
func (t *Thread) park() {
	if !t.yield(struct{}{}) {
		panic(stopToken{})
	}
}

// dump formats the scheduler state for deadlock diagnostics: per thread,
// its state and its innermost attribution path (what it was doing when it
// parked).
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
		fmt.Fprintf(&b, "  %-24s core=%-3d clock=%-12d attr=%-28s %s\n", t.Name, t.Core, t.clock, t.AttrPath(), st)
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
	e.ready.push(t)
}
