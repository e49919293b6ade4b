// Package span is the causal layer of the observability stack: every
// top-level simulated operation (page fault, syscall, data-path access,
// journal commit, NOVA log append, TLB shootdown) opens a span in
// virtual time, nested operations become child spans, and blocking
// reasons are recorded as typed wait kinds. Where the cycle profiler
// (obs.CycleAccount) answers "where did all cycles go in aggregate",
// spans answer "what did *this* operation spend its latency on" — the
// per-op provenance that aggregate counters cannot give for tail
// phenomena like the paper's mmap_sem collapse.
//
// Reconciliation contract (the same zero-unattributed discipline as the
// cycle profiler): the collector observes every engine charge through
// sim.Engine's charge observer, so
//
//	BookedCycles + OutsideCycles + RemoteCycles == Σ Engine.TotalCharged
//
// holds exactly. Booked cycles are charges made by a thread while it
// has a span open (they become span self-time); outside cycles are
// charges with no open span (daemons, setup bootstrap); remote cycles
// are AddRemote bookings (IPI handler work), which advance the target
// thread's clock without being work the target's current operation
// initiated, so they belong to no span. Consequently, for a span class
// whose Begin/End window coincides with an attribution frame (e.g.
// "fault.minor"), the class's summed tree self-time equals the cycles
// the profiler attributed under that frame.
//
// Wait kinds decompose a span two ways, and the two overlap by design:
//   - charged waits (pmem_bw, remote_numa, ipi) are a subset of
//     self-time, classified from the charge's attribution label;
//   - blocked waits (mmap_sem, journal_flush via lock hooks) are
//     uncharged park gaps, a subset of Dur − TreeSelf.
//
// Everything here is deterministic: spans live in virtual time, the
// exemplar reservoir breaks ties by arrival order, and exports sort by
// class name — two runs of the same binary serialize byte-identically.
package span

import (
	"strings"
	"sync"

	"daxvm/internal/obs"
	"daxvm/internal/sim"
)

// WaitKind is a typed blocking reason recorded on a span.
type WaitKind uint8

const (
	// WaitMmapSem is uncharged time parked on a contended mmap_sem
	// (reader or writer side), fed by the RWSem contention hook.
	WaitMmapSem WaitKind = iota
	// WaitPMemBW is charged stall time against a PMem device's
	// bandwidth model ("bw_stall" charge labels).
	WaitPMemBW
	// WaitRemoteNUMA is the charged surcharge for crossing sockets on
	// the data path ("remote_read"/"remote_write"/"data_remote").
	WaitRemoteNUMA
	// WaitIPI is charged TLB-shootdown broadcast time on the initiator
	// ("ipi_send"/"ipi_wait").
	WaitIPI
	// WaitJournal is journal-flush time: uncharged waits on the journal
	// mutex plus, on a parent span, the full duration of any child
	// journal-commit span (the commit is one opaque flush from the
	// enclosing operation's point of view).
	WaitJournal

	numWaitKinds = 5
)

// ClassJournalCommit is the span class of an ext4 journal commit; the
// collector folds child spans of this class into the parent's
// WaitJournal rather than propagating their internal waits.
const ClassJournalCommit = "journal.commit"

var waitNames = [numWaitKinds]string{"mmap_sem", "pmem_bw", "remote_numa", "ipi", "journal_flush"}

// String returns the stable serialized name of the wait kind.
func (k WaitKind) String() string {
	if int(k) < len(waitNames) {
		return waitNames[k]
	}
	return "unknown"
}

// node is one live span. Nodes are pooled: a finished root tree is
// recycled unless an exemplar snapshot kept a deep copy.
type node struct {
	class      string
	core       int
	seq        uint64 // global arrival order, the deterministic tiebreak
	start      uint64 // virtual cycles at Begin
	dur        uint64 // set at End
	self       uint64 // cycles this thread charged while innermost here
	childSelf  uint64 // Σ finished children's tree self
	waits      [numWaitKinds]uint64
	childWaits [numWaitKinds]uint64
	children   []*node
}

func (n *node) treeSelf() uint64 { return n.self + n.childSelf }

func (n *node) treeWaits() [numWaitKinds]uint64 {
	w := n.waits
	for k := range w {
		w[k] += n.childWaits[k]
	}
	return w
}

// tstate is the per-thread open-span stack. Spans nest strictly (the
// instrumented layers bracket with Begin/defer End), so a stack is the
// whole story.
type tstate struct {
	stack []*node
}

// classStats aggregates finished spans of one class within a segment.
type classStats struct {
	count     uint64
	totalDur  uint64
	totalSelf uint64 // Σ tree self
	waits     [numWaitKinds]uint64
	hist      obs.Histogram
	top       []exemplar // ascending by (dur, seq), len ≤ collector K
}

// exemplar is a retained slow-op record: the full span tree plus the
// roll-ups the critical-path table needs.
type exemplar struct {
	dur      uint64
	seq      uint64
	treeSelf uint64
	waits    [numWaitKinds]uint64
	tree     Span
}

// segment groups spans the way the timeline groups intervals: one
// segment per experiment run, so artifacts can slice per experiment.
// waits are the segment's once-counted wait-kind totals: every charged
// classified cycle and every uncharged Wait gap lands here exactly once,
// whether or not a span is open. Per-class wait stats multi-count by
// nesting depth (finish propagates tree waits to parents), so these
// totals — not the class sums — are what reconcile against the resource
// models' own stall counters and what the bottleneck analyzer
// cross-checks saturation scores against.
type segment struct {
	id      string
	classes []namedClass // in first-seen order; exports sort by name
	waits   [numWaitKinds]uint64
}

// namedClass is one op class's stats within a segment.
type namedClass struct {
	name string
	st   *classStats
}

// empty reports whether the segment saw neither spans nor wait cycles.
func (s *segment) empty() bool {
	if len(s.classes) > 0 {
		return false
	}
	for _, v := range s.waits {
		if v != 0 {
			return false
		}
	}
	return true
}

// class returns name's stats, creating them on first sight. A segment
// holds a few dozen classes and most names are constants, so a scan by
// string equality (pointer-equal on a hit) beats hashing the name.
func (s *segment) class(name string) *classStats {
	for _, c := range s.classes {
		if c.name == name {
			return c.st
		}
	}
	//lint:ignore hotalloc once per new span class in a segment; steady state hits the scan
	st := &classStats{}
	//lint:ignore hotalloc once per new span class in a segment
	s.classes = append(s.classes, namedClass{name, st})
	return st
}

// noKind marks a charge label that maps to no wait kind; unclassified
// marks a path the collector has not classified yet.
const (
	noKind       = WaitKind(numWaitKinds)
	unclassified = noKind + 1
)

// Collector owns the per-thread span stacks and the per-segment
// aggregates. All entry points are nil-receiver safe so unwired
// subsystems pay one branch, mirroring the tracer and profiler.
type Collector struct {
	mu sync.Mutex

	k   int    // exemplars kept per class
	seq uint64 // Begin arrival counter

	booked  uint64 // charges landed in an open span
	outside uint64 // charges with no open span
	remote  uint64 // AddRemote bookings (never in a span)

	threads map[*sim.Thread]*tstate
	lastT   *sim.Thread // single-entry state cache: consecutive
	lastS   *tstate     // charges come from the running thread

	// waitCls caches each charge path's wait kind, indexed by the path
	// id: classify runs once per path, on first sight.
	waitCls []WaitKind

	cur  *segment
	done []*segment

	free []*node
}

// New creates a collector keeping at most k exemplar span trees per op
// class per segment (k <= 0 disables exemplars; stats are still kept).
func New(k int) *Collector {
	return &Collector{
		k:       k,
		threads: map[*sim.Thread]*tstate{},
		cur:     &segment{},
	}
}

func (c *Collector) state(t *sim.Thread) *tstate {
	if t == c.lastT {
		return c.lastS
	}
	ts := c.threads[t]
	if ts == nil {
		//lint:ignore hotalloc once per thread; steady state hits the one-slot cache or the map
		ts = &tstate{}
		c.threads[t] = ts
	}
	c.lastT, c.lastS = t, ts
	return ts
}

func (c *Collector) newNode() *node {
	if n := len(c.free); n > 0 {
		nd := c.free[n-1]
		c.free = c.free[:n-1]
		return nd
	}
	//lint:ignore hotalloc pool miss: steady state recycles finished trees through the free list
	return &node{}
}

// recycle returns a finished root tree to the free list. Exemplar
// snapshots deep-copied out of the tree are unaffected.
func (c *Collector) recycle(n *node) {
	for _, ch := range n.children {
		c.recycle(ch)
	}
	kids := n.children[:0]
	*n = node{}
	n.children = kids
	//lint:ignore hotalloc free list: bounded by the peak live tree size
	c.free = append(c.free, n)
}

// Begin opens a span of the given class on t at its current virtual
// time. Classes mirror the attribution labels of the operation they
// wrap ("fault.minor", "syscall.append", ...).
func (c *Collector) Begin(t *sim.Thread, class string) {
	if c == nil {
		return
	}
	// On a sharded engine the call is deferred: the scheduler replays it
	// through Apply in emission order, off the model goroutine. The
	// timestamp must be captured here — the clock moves on immediately.
	if t.DeferObs(sim.ObsRecord{Kind: sim.ObsSpanBegin, T: t, Class: class, Now: t.Now()}) {
		return
	}
	c.beginAt(t, class, t.Now())
}

func (c *Collector) beginAt(t *sim.Thread, class string, now uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.state(t)
	c.seq++
	n := c.newNode()
	n.class = class
	n.core = t.Core
	n.seq = c.seq
	n.start = now
	//lint:ignore hotalloc span stack: reaches its steady nesting depth after warm-up
	ts.stack = append(ts.stack, n)
}

// End closes t's innermost open span. Panics on an unmatched End — an
// instrumentation bug, like PopAttr without PushAttr.
func (c *Collector) End(t *sim.Thread) {
	if c == nil {
		return
	}
	if t.DeferObs(sim.ObsRecord{Kind: sim.ObsSpanEnd, T: t, Now: t.Now()}) {
		return
	}
	c.endAt(t, t.Now())
}

func (c *Collector) endAt(t *sim.Thread, now uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.state(t)
	if len(ts.stack) == 0 {
		panic("span: End without matching Begin")
	}
	n := ts.stack[len(ts.stack)-1]
	ts.stack = ts.stack[:len(ts.stack)-1]
	n.dur = now - n.start
	c.finish(n, ts)
}

// finish folds a closed span into its segment's class stats and either
// attaches it to its parent or recycles the finished root tree.
func (c *Collector) finish(n *node, ts *tstate) {
	st := c.cur.class(n.class)
	st.count++
	st.totalDur += n.dur
	tSelf := n.treeSelf()
	st.totalSelf += tSelf
	tw := n.treeWaits()
	for k := range tw {
		st.waits[k] += tw[k]
	}
	st.hist.Observe(n.dur)
	c.consider(st, n, tSelf, tw)
	if len(ts.stack) > 0 {
		p := ts.stack[len(ts.stack)-1]
		p.childSelf += tSelf
		if n.class == ClassJournalCommit {
			// From the enclosing op's point of view the commit is one
			// opaque flush: book its whole duration as journal wait and
			// drop its internal decomposition (avoids double counting
			// the commit's own bw stalls against the parent).
			p.childWaits[WaitJournal] += n.dur
		} else {
			for k := range tw {
				p.childWaits[k] += tw[k]
			}
		}
		//lint:ignore hotalloc children slices are recycled with their nodes; growth amortizes away
		p.children = append(p.children, n)
		return
	}
	c.recycle(n)
}

// consider offers a finished span to the class's top-K reservoir.
// Replacement requires strictly greater duration, so among equal-length
// ops the earliest seen survive; combined with the virtual-time seq
// tiebreak this makes the kept set and its order run-invariant.
func (c *Collector) consider(st *classStats, n *node, tSelf uint64, tw [numWaitKinds]uint64) {
	if c.k <= 0 {
		return
	}
	if len(st.top) == c.k && n.dur <= st.top[0].dur {
		return
	}
	ex := exemplar{dur: n.dur, seq: n.seq, treeSelf: tSelf, waits: tw, tree: snapshot(n)}
	if len(st.top) == c.k {
		copy(st.top, st.top[1:])
		st.top = st.top[:c.k-1]
	}
	// Insert keeping ascending (dur, seq) order; K is small.
	i := len(st.top)
	for i > 0 && (st.top[i-1].dur > ex.dur || (st.top[i-1].dur == ex.dur && st.top[i-1].seq > ex.seq)) {
		i--
	}
	//lint:ignore hotalloc top-K reservoir: the append never grows past K
	st.top = append(st.top, exemplar{})
	copy(st.top[i+1:], st.top[i:])
	st.top[i] = ex
}

// Observe is the engine charge hook (wire via sim.Engine's
// SetChargeObserver): it books every charge into the charging thread's
// innermost open span, classifying bandwidth/NUMA/IPI labels into wait
// kinds, and keeps the outside/remote counters that make the layer
// reconcile exactly against Engine.TotalCharged.
func (c *Collector) Observe(t *sim.Thread, path obs.Path, cycles uint64, remote bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if remote {
		c.remote += cycles
		return
	}
	ts := c.state(t)
	k := c.waitKind(path)
	if k != noKind {
		// Segment totals count every classified charge exactly once,
		// span or no span (a daemon's bw stall is still channel wait).
		c.cur.waits[k] += cycles
	}
	if len(ts.stack) == 0 {
		c.outside += cycles
		return
	}
	n := ts.stack[len(ts.stack)-1]
	n.self += cycles
	c.booked += cycles
	if k != noKind {
		n.waits[k] += cycles
	}
}

// waitKind returns path's cached wait kind, classifying it on first
// sight. Caller holds mu.
func (c *Collector) waitKind(path obs.Path) WaitKind {
	if int(path) >= len(c.waitCls) {
		n := len(c.waitCls)
		//lint:ignore hotalloc wait-kind cache: grows to the process-wide path count, then only indexes
		c.waitCls = append(c.waitCls, make([]WaitKind, int(path)+1-n)...)
		for i := n; i < len(c.waitCls); i++ {
			c.waitCls[i] = unclassified
		}
	}
	k := c.waitCls[path]
	if k == unclassified {
		k = classify(path.String())
		c.waitCls[path] = k
	}
	return k
}

// classify maps a charge path's leaf label to a wait kind. The labels
// are the attribution contract of the instrumented layers: pmem books
// bandwidth stalls as "bw_stall" and cross-socket surcharges as
// "remote_read"/"remote_write", the kernel data path books remote
// accesses as "data_remote", and cpu books shootdown broadcast cost as
// "ipi_send"/"ipi_wait".
func classify(path string) WaitKind {
	leaf := path
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		leaf = path[i+1:]
	}
	switch leaf {
	case "bw_stall":
		return WaitPMemBW
	case "remote_read", "remote_write", "data_remote":
		return WaitRemoteNUMA
	case "ipi_send", "ipi_wait":
		return WaitIPI
	}
	return noKind
}

// Wait books an uncharged blocked gap (cycles long) of the given kind
// onto t's innermost open span. No-op when no span is open — a daemon
// parked on a lock is not an operation. Wired from lock contention
// hooks with the pure park gap (ContentionFn's blocked argument).
func (c *Collector) Wait(t *sim.Thread, k WaitKind, cycles uint64) {
	if c == nil || cycles == 0 {
		return
	}
	if t.DeferObs(sim.ObsRecord{Kind: sim.ObsSpanWait, Wait: uint8(k), T: t, Cycles: cycles}) {
		return
	}
	c.waitAt(t, k, cycles)
}

func (c *Collector) waitAt(t *sim.Thread, k WaitKind, cycles uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur.waits[k] += cycles
	ts := c.state(t)
	if len(ts.stack) == 0 {
		return
	}
	ts.stack[len(ts.stack)-1].waits[k] += cycles
}

// Apply consumes one deferred span record from the sharded scheduler's
// merger (wire via sim.Engine.SetObsApplier). Records arrive in exact
// emission order, so the collector's internal sequence numbers, exemplar
// replacements, and segment totals are byte-identical to the inline path.
func (c *Collector) Apply(rec sim.ObsRecord) {
	switch rec.Kind {
	case sim.ObsSpanBegin:
		c.beginAt(rec.T, rec.Class, rec.Now)
	case sim.ObsSpanEnd:
		c.endAt(rec.T, rec.Now)
	case sim.ObsSpanWait:
		c.waitAt(rec.T, WaitKind(rec.Wait), rec.Cycles)
	}
}

// StartSegment finalizes the current segment (if it saw any spans) and
// starts a new one named id, mirroring timeline.StartSegment.
func (c *Collector) StartSegment(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cur.empty() {
		c.done = append(c.done, c.cur)
	}
	c.cur = &segment{id: id}
}

// ForgetIdle drops the span state of every thread with no open span. The
// kernel calls it when an engine run ends, so the collector, which
// outlives the kernels sharing it, keeps no finished thread (and through
// it the engine and kernel) reachable. A forgotten thread that runs again
// simply starts a fresh, empty stack.
func (c *Collector) ForgetIdle() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for t, ts := range c.threads {
		if len(ts.stack) == 0 {
			delete(c.threads, t)
		}
	}
	c.lastT, c.lastS = nil, nil
}

// BookedCycles reports charges booked as span self-time.
func (c *Collector) BookedCycles() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.booked
}

// OutsideCycles reports charges observed with no open span.
func (c *Collector) OutsideCycles() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outside
}

// RemoteCycles reports AddRemote bookings, which belong to no span.
func (c *Collector) RemoteCycles() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// ObservedCycles is the reconciliation total: it must equal the summed
// TotalCharged of every engine whose observer points here.
func (c *Collector) ObservedCycles() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.booked + c.outside + c.remote
}
