package sim

import "daxvm/internal/obs"

// Scheduler is the engine's dispatch core: it owns the ready queue(s) and
// the policy for delivering observability emissions (charge sink/observer
// calls and deferred span records). Exactly one model thread runs at a
// time under every implementation; schedulers differ only in how ready
// threads are stored and in whether observability bookkeeping is applied
// inline (sequential) or offloaded to host workers and merged back in
// emission order (sharded). The interface is sealed inside package sim:
// correctness depends on invariants (single running thread, seq-stamped
// pushes) the engine alone maintains.
type Scheduler interface {
	// push enqueues t, already stamped with its (wakeAt, seq) key.
	push(t *Thread)
	// pop removes and returns the minimum-(wakeAt, seq) ready thread,
	// or nil when nothing is runnable.
	pop() *Thread
	// readyDepth reports how many threads are queued.
	readyDepth() int
	// shardOf reports which shard dispatches the given core, or -1 when
	// the scheduler has no shards (diagnostics only).
	shardOf(core int) int
	// emitCharge delivers one charge to the engine's sink/observer —
	// inline, or deferred and merged in emission order.
	emitCharge(t *Thread, path obs.Path, cycles uint64, remote bool)
	// deferRecord offers a span record for deferred in-order
	// application; false means the caller must apply it inline.
	deferRecord(rec ObsRecord) bool
	// drain forces every deferred emission to be applied before
	// returning (called ahead of observability readers).
	drain()
	// stop drains and joins any host workers (called once, after Run).
	stop()
}

// threadHeap is a concrete-typed binary min-heap of threads ordered by
// (wakeAt, seq). It replaces container/heap on the hottest scheduler
// path: heap.Push/Pop box every *Thread through `any`, and that
// allocation shows up in whole-program hot-path profiles. seq values are
// unique (the engine stamps them from a single counter), so the order is
// total and any correct binary heap pops the identical sequence —
// swapping the implementation cannot change dispatch order.
type threadHeap struct {
	ts []*Thread
}

func (h *threadHeap) len() int { return len(h.ts) }

func (h *threadHeap) less(i, j int) bool {
	a, b := h.ts[i], h.ts[j]
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
	}
	return a.seq < b.seq
}

func (h *threadHeap) swap(i, j int) {
	h.ts[i], h.ts[j] = h.ts[j], h.ts[i]
	h.ts[i].index = i
	h.ts[j].index = j
}

func (h *threadHeap) push(t *Thread) {
	t.index = len(h.ts)
	//lint:ignore hotalloc ready-heap backing array: amortized, reaches steady capacity after warm-up
	h.ts = append(h.ts, t)
	h.up(t.index)
}

func (h *threadHeap) pop() *Thread {
	n := len(h.ts)
	if n == 0 {
		return nil
	}
	t := h.ts[0]
	h.swap(0, n-1)
	h.ts[n-1] = nil
	h.ts = h.ts[:n-1]
	if n > 1 {
		h.down(0)
	}
	t.index = -1
	return t
}

// peek returns the minimum thread without removing it.
func (h *threadHeap) peek() *Thread {
	if len(h.ts) == 0 {
		return nil
	}
	return h.ts[0]
}

func (h *threadHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *threadHeap) down(i int) {
	n := len(h.ts)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// seqScheduler is the reference implementation: one global ready heap,
// observability applied inline at the charge site. It is the semantic
// baseline the sharded scheduler must match byte-for-byte.
type seqScheduler struct {
	e     *Engine
	ready threadHeap
}

func (s *seqScheduler) push(t *Thread)       { s.ready.push(t) }
func (s *seqScheduler) pop() *Thread         { return s.ready.pop() }
func (s *seqScheduler) readyDepth() int      { return s.ready.len() }
func (s *seqScheduler) shardOf(core int) int { return -1 }

func (s *seqScheduler) emitCharge(t *Thread, path obs.Path, cycles uint64, remote bool) {
	if s.e.sink != nil {
		s.e.sink(t.Core, path, cycles)
	}
	if s.e.observer != nil {
		s.e.observer(t, path, cycles, remote)
	}
}

func (s *seqScheduler) deferRecord(rec ObsRecord) bool { return false }
func (s *seqScheduler) drain()                         {}
func (s *seqScheduler) stop()                          {}
