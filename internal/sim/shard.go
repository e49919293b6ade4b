package sim

import (
	"sync"
	"sync/atomic"

	"daxvm/internal/cost"
	"daxvm/internal/obs"
)

// The sharded scheduler: what parallelizes, and what provably cannot.
//
// The obvious plan — run each shard's threads on its own host core inside
// conservative epoch windows [T, T+Δ) — founders on this model's physics.
// Conservative parallel discrete-event simulation needs lookahead: a lower
// bound Δ on how far in the future one shard can affect another, so events
// closer than Δ apart can run concurrently. Here the minimum cross-shard
// interaction cost (Lookahead below: the cheapest of IPI dispatch and
// scheduler wakeup) is ~1800 cycles, but two couplings reduce the usable
// lookahead to zero: the PMem bandwidth token bucket is shared by every
// core, so any two charges anywhere may interact at the same virtual
// instant; and SpinLock handoff resumes the next waiter at exactly the
// releaser's clock (TestSpinLockNoWakeCost pins this), i.e. a cross-shard
// effect with zero added latency. With zero usable lookahead the epochs
// degenerate to one event per window — sequential execution with extra
// barriers. That negative result is a finding, not a failure (see
// DESIGN.md "Scheduler architecture").
//
// So the sharded scheduler keeps model execution globally serialized in
// exact (wakeAt, seq) order — which is what guarantees byte-identical
// artifacts — and extracts host parallelism from the other half of the
// engine's work: observability. In profile, charge-sink and span
// bookkeeping (map lookups, top-K exemplars, histogram updates) dominate
// the per-charge cost when -obs is on. The sharded scheduler defers those
// emissions into per-shard buffers, flushes all shards at epoch
// boundaries, and lets per-shard host workers pre-aggregate additive
// charge partials in parallel; a single merger goroutine then applies
// order-dependent records (span begin/end/wait, observer charges) in
// global emission order. Determinism survives because:
//
//   - exactly one model thread runs at a time, so emission order IS the
//     sequential schedule's emission order; every record carries a global
//     sequence stamp assigned at emission;
//   - the merger applies order-dependent records in stamp order, so the
//     span collector sees the identical call sequence it would have seen
//     inline (same internal seq numbers, same exemplar replacements);
//   - charge aggregation is addition-commutative (CycleAccount sums
//     cycles and counts per (path, core)), so applying partials in any
//     order yields identical totals;
//   - observability readers (timeline samplers) force a full drain before
//     they are dispatched, so every snapshot they take matches the
//     sequential scheduler's snapshot at the same virtual time.
//
// Cross-shard scheduling effects — Wake of a thread on another shard,
// AddRemote IPI bookings — land in the target shard's mailbox and are
// drained into its ready heap before every dispatch decision, in push
// order, so the (wakeAt, seq) dispatch key is identical to the sequential
// scheduler's.

// Lookahead returns the conservative-synchronization lookahead Δ in
// cycles: the minimum virtual-time cost of any cross-shard interaction.
// The cheapest ways one core affects another are an IPI dispatch
// (cost.IPIBase, with cost.IPIAckLatency before the effect is observed)
// and a scheduler wakeup (cost.SchedWakeup); any cross-shard effect costs
// at least the smallest of these. Epoch windows are sized as a multiple
// of this bound.
func Lookahead() uint64 {
	la := uint64(cost.IPIBase)
	if w := uint64(cost.SchedWakeup); w < la {
		la = w
	}
	if a := uint64(cost.IPIAckLatency); a < la {
		la = a
	}
	return la
}

// epochFactor scales Lookahead into the epoch window length. Larger
// windows amortize flush overhead; smaller ones bound how stale the
// deferred observability state may get between forced drains.
const epochFactor = 512

// flushCap bounds how many deferred records accumulate across all shards
// before a flush is forced regardless of epoch position.
const flushCap = 16384

// ObsKind discriminates deferred observability records.
type ObsKind uint8

const (
	// ObsCharge is a charge emission (sink + observer).
	ObsCharge ObsKind = iota
	// ObsSpanBegin / ObsSpanEnd / ObsSpanWait are span-collector calls
	// deferred by obs/span via Thread.DeferObs.
	ObsSpanBegin
	ObsSpanEnd
	ObsSpanWait
)

// ObsRecord is one deferred observability emission. Everything
// order-sensitive is captured at emission time — notably Now, because the
// thread's clock will have moved on by the time the merger applies the
// record.
type ObsRecord struct {
	Kind   ObsKind
	Wait   uint8    // span wait-kind for ObsSpanWait
	Remote bool     // AddRemote booking (ObsCharge)
	Path   obs.Path // charge attribution path (ObsCharge)
	T      *Thread
	Class  string // span class (ObsSpanBegin)
	Cycles uint64
	Now    uint64 // thread clock at emission (span begin/end timestamps)
	seq    uint64 // global emission order, stamped by the scheduler
}

// chargePartial is a worker's pre-aggregated charge bucket.
type chargePartial struct {
	path   obs.Path
	core   int
	cycles uint64
	count  uint64
}

// prepared is a worker's output for one shard-batch of one generation.
type prepared struct {
	partials []chargePartial // in first-charge order; only when bulkSink is set
	ordered  []ObsRecord     // records the merger must apply in seq order
}

type genMsg struct {
	ack chan struct{} // closed by the merger once the generation is applied
}

type shard struct {
	heap    threadHeap
	mailbox []*Thread
	buf     []ObsRecord
	in      chan []ObsRecord
	out     chan prepared
}

// shardScheduler implements Scheduler with per-shard ready heaps and the
// deferred observability pipeline described above.
type shardScheduler struct {
	e        *Engine
	shards   []*shard
	block    int // cores per shard (contiguous partition)
	cores    int
	curShard int // shard of the currently running thread, -1 before Run

	epochLen uint64
	epochEnd uint64

	buffered int // deferred records across all shards since last flush

	// inFlight counts flushed-but-unapplied generations. The model
	// goroutine increments at flush; the merger decrements (atomically,
	// with a happens-before edge) once a generation is fully applied.
	// When it reads 0 at drain time the pipeline is empty and the model
	// goroutine may apply its buffers inline — the common case for
	// sampler-paced drains, which would otherwise pay a full channel
	// round trip per sample interval.
	inFlight int64

	started    bool
	gens       chan genMsg
	workers    sync.WaitGroup
	mergerDone chan struct{}

	// merge scratch, preallocated: drains run per sampler interval.
	scratchLists [][]ObsRecord
	scratchIdx   []int
}

func newShardScheduler(e *Engine, shards, cores int) *shardScheduler {
	if cores < 1 {
		cores = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > cores {
		shards = cores
	}
	s := &shardScheduler{
		e:        e,
		shards:   make([]*shard, shards),
		block:    (cores + shards - 1) / shards,
		cores:    cores,
		curShard: -1,
		epochLen: Lookahead() * epochFactor,
	}
	s.epochEnd = s.epochLen
	for i := range s.shards {
		s.shards[i] = &shard{
			in:  make(chan []ObsRecord, 4),
			out: make(chan prepared, 4),
		}
	}
	s.scratchLists = make([][]ObsRecord, shards)
	s.scratchIdx = make([]int, shards)
	return s
}

func (s *shardScheduler) shardOf(core int) int {
	if core < 0 {
		return 0
	}
	i := core / s.block
	if i >= len(s.shards) {
		i = len(s.shards) - 1
	}
	return i
}

// push routes t to its shard: direct heap insertion when pushed by a
// thread on the same shard (or from outside the simulation), otherwise
// via the target shard's mailbox — the cross-shard path Wake and
// AddRemote wakeups take. Mailboxes drain before every dispatch decision,
// so the effect on dispatch order is identical either way.
func (s *shardScheduler) push(t *Thread) {
	sh := s.shardOf(t.Core)
	if s.curShard >= 0 && sh != s.curShard {
		//lint:ignore hotalloc cross-shard mailbox: amortized, drained and reused every dispatch
		s.shards[sh].mailbox = append(s.shards[sh].mailbox, t)
		return
	}
	s.shards[sh].heap.push(t)
}

// drainMailboxes moves cross-shard pushes into their shard heaps, in push
// order. The heap re-sorts by (wakeAt, seq), so the dispatch key order is
// exactly the sequential scheduler's.
func (s *shardScheduler) drainMailboxes() {
	for _, sh := range s.shards {
		if len(sh.mailbox) == 0 {
			continue
		}
		for _, t := range sh.mailbox {
			sh.heap.push(t)
		}
		sh.mailbox = sh.mailbox[:0]
	}
}

// pop drains mailboxes, then selects the global minimum-(wakeAt, seq)
// thread across the shard heap heads — the identical choice the
// sequential scheduler's single heap would make, because seq values are
// unique and each heap head is its shard's minimum.
func (s *shardScheduler) pop() *Thread {
	s.drainMailboxes()
	best := -1
	var bt *Thread
	for i, sh := range s.shards {
		h := sh.heap.peek()
		if h == nil {
			continue
		}
		if bt == nil || h.wakeAt < bt.wakeAt || (h.wakeAt == bt.wakeAt && h.seq < bt.seq) {
			best, bt = i, h
		}
	}
	if bt == nil {
		return nil
	}
	s.shards[best].heap.pop()
	s.curShard = best
	if bt.wakeAt >= s.epochEnd {
		// Epoch barrier: seal every shard's deferred buffer as one
		// generation and hand it to the workers, then open the next
		// window. Flushing all shards together keeps generation sequence
		// ranges monotone, so the merger never sees out-of-order stamps.
		s.flush(nil)
		s.epochEnd = (bt.wakeAt/s.epochLen + 1) * s.epochLen
	}
	return bt
}

func (s *shardScheduler) readyDepth() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.heap.len() + len(sh.mailbox)
	}
	return n
}

func (s *shardScheduler) emitCharge(t *Thread, path obs.Path, cycles uint64, remote bool) {
	s.enqueue(ObsRecord{Kind: ObsCharge, Remote: remote, T: t, Path: path, Cycles: cycles})
}

func (s *shardScheduler) deferRecord(rec ObsRecord) bool {
	if s.e.applier == nil {
		return false
	}
	s.enqueue(rec)
	return true
}

// enqueue stamps rec with its global emission sequence and appends it to
// the current shard's buffer. Runs only on the single model goroutine, so
// the seq counter needs no atomics.
func (s *shardScheduler) enqueue(rec ObsRecord) {
	s.e.obsSeq++
	rec.seq = s.e.obsSeq
	i := s.curShard
	if i < 0 {
		i = 0
	}
	//lint:ignore hotalloc deferred-obs buffer: one amortized append per emission, recycled per generation
	s.shards[i].buf = append(s.shards[i].buf, rec)
	s.buffered++
	if s.buffered >= flushCap {
		s.flush(nil)
	}
}

// flush seals every shard's buffer as one generation and hands the
// batches to the shard workers. ack, when non-nil, is closed by the
// merger once this generation (and, by FIFO, everything before it) has
// been applied.
func (s *shardScheduler) flush(ack chan struct{}) {
	if ack == nil && s.buffered == 0 {
		// Epoch/capacity flush with nothing buffered (e.g. an engine with
		// no sinks wired): sealing an empty generation would only spin up
		// the pipeline for nothing. Acked flushes still go through — the
		// caller is waiting on the close.
		return
	}
	if !s.started {
		s.start()
	}
	for _, sh := range s.shards {
		sh.in <- sh.buf
		sh.buf = nil
	}
	s.buffered = 0
	atomic.AddInt64(&s.inFlight, 1)
	s.gens <- genMsg{ack: ack}
}

// drain blocks until every deferred record has been applied. Called
// before observability readers are dispatched and by stop. When the
// pipeline is already empty it applies the current buffers inline on the
// model goroutine — identical order, identical final state, no channel
// round trip. That matters because the timeline sampler forces a drain
// every sample interval, far more often than epochs close; paying a
// worker+merger round trip per interval costs more than inline
// bookkeeping saves on small batches.
func (s *shardScheduler) drain() {
	if atomic.LoadInt64(&s.inFlight) == 0 {
		if s.buffered == 0 {
			return
		}
		for i, sh := range s.shards {
			s.scratchLists[i] = sh.buf
		}
		s.applyRecords(s.scratchLists, true)
		for i, sh := range s.shards {
			sh.buf = sh.buf[:0]
			s.scratchLists[i] = nil
		}
		s.buffered = 0
		return
	}
	ack := make(chan struct{})
	s.flush(ack)
	<-ack
}

// stop drains outstanding generations and joins the host workers. Called
// once, after the model has finished, before Run returns — so callers
// reading sinks/observers afterwards have a happens-before edge on every
// application.
func (s *shardScheduler) stop() {
	s.drain()
	if !s.started {
		return
	}
	for _, sh := range s.shards {
		close(sh.in)
	}
	s.workers.Wait()
	close(s.gens)
	<-s.mergerDone
}

// start spawns the per-shard workers and the merger. Host-side goroutines
// are the whole point of the sharded scheduler; the determinism lint's
// raw-`go` ban is suppressed for exactly these spawns (the model side
// still never spawns).
func (s *shardScheduler) start() {
	s.started = true
	//lint:ignore hotalloc pipeline setup: runs once per engine
	s.gens = make(chan genMsg, 4)
	//lint:ignore hotalloc pipeline setup: runs once per engine
	s.mergerDone = make(chan struct{})
	for _, sh := range s.shards {
		s.workers.Add(1)
		sh := sh
		// Shard worker: aggregates its shard's deferred charges off the
		// model goroutine. FIFO in→out preserves generation order.
		//lint:ignore determinism,hotalloc shard host worker: one spawn per engine, model stays serialized
		go func() {
			defer s.workers.Done()
			for b := range sh.in {
				sh.out <- s.prepare(b)
			}
		}()
	}
	// Merger: applies each generation's batches — additive partials in
	// any order, order-dependent records in global seq order.
	//lint:ignore determinism merger goroutine: applies deferred records in global emission order
	go s.merge()
}

// prepare runs on a shard worker: it splits a batch into additive charge
// partials (aggregated here, in parallel across shards) and records the
// merger must replay in emission order.
func (s *shardScheduler) prepare(b []ObsRecord) prepared {
	var p prepared
	e := s.e
	aggregate := e.bulkSink != nil && e.sink != nil
	var agg map[chargeKey]int // index into p.partials
	for _, rec := range b {
		if rec.Kind != ObsCharge {
			//lint:ignore hotalloc worker-side batch split: runs off the model goroutine
			p.ordered = append(p.ordered, rec)
			continue
		}
		if aggregate {
			k := chargeKey{path: rec.Path, core: rec.T.Core}
			if agg == nil {
				//lint:ignore hotalloc worker-side aggregation map: one per generation batch, off the model goroutine
				agg = make(map[chargeKey]int)
			}
			if i, ok := agg[k]; ok {
				p.partials[i].cycles += rec.Cycles
				p.partials[i].count++
			} else {
				agg[k] = len(p.partials)
				//lint:ignore hotalloc worker-side partials: one entry per unique (path, core) per batch
				p.partials = append(p.partials, chargePartial{path: rec.Path, core: rec.T.Core, cycles: rec.Cycles, count: 1})
			}
		}
		if e.observer != nil || (!aggregate && e.sink != nil) {
			//lint:ignore hotalloc worker-side batch split: runs off the model goroutine
			p.ordered = append(p.ordered, rec)
		}
	}
	return p
}

type chargeKey struct {
	path obs.Path
	core int
}

// merge is the single consumer of worker output: per generation it applies
// every shard's additive partials, then k-way-merges the shards' ordered
// records by their global seq stamps and applies them one by one —
// exactly the call sequence the sequential scheduler would have made
// inline.
func (s *shardScheduler) merge() {
	defer close(s.mergerDone)
	e := s.e
	//lint:ignore hotalloc merger scratch: allocated once per engine
	lists := make([][]ObsRecord, len(s.shards))
	//lint:ignore hotalloc merger scratch: allocated once per engine
	idx := make([]int, len(s.shards))
	for g := range s.gens {
		for i, sh := range s.shards {
			p := <-sh.out
			if e.bulkSink != nil {
				for _, c := range p.partials {
					e.bulkSink(c.core, c.path, c.cycles, c.count)
				}
			}
			lists[i] = p.ordered
		}
		s.mergeRecords(lists, idx, false)
		for i := range lists {
			lists[i] = nil
		}
		// Decrement after every application, before the ack: a model
		// goroutine that observes 0 afterwards has a happens-before edge
		// on everything this generation wrote.
		atomic.AddInt64(&s.inFlight, -1)
		if g.ack != nil {
			close(g.ack)
		}
	}
}

// applyRecords applies raw (unprepared) per-shard buffers inline on the
// model goroutine, using the scheduler's scratch space. Charges take the
// per-record form of whichever sink contract is wired — bulk (count 1
// each; addition-commutative, so the final state matches the aggregated
// path) or plain.
func (s *shardScheduler) applyRecords(lists [][]ObsRecord, inline bool) {
	s.mergeRecords(lists, s.scratchIdx, inline)
}

// mergeRecords k-way-merges per-shard seq-ascending record lists and
// applies each record in global emission order. idx is caller-owned
// scratch (the merger goroutine and the model goroutine's inline drain
// must not share it); inlineCharges selects per-record charge
// application for unprepared buffers.
func (s *shardScheduler) mergeRecords(lists [][]ObsRecord, idx []int, inlineCharges bool) {
	e := s.e
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bseq uint64
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if sq := l[idx[i]].seq; best < 0 || sq < bseq {
				best, bseq = i, sq
			}
		}
		if best < 0 {
			return
		}
		rec := lists[best][idx[best]]
		idx[best]++
		switch rec.Kind {
		case ObsCharge:
			if inlineCharges && e.bulkSink != nil && e.sink != nil {
				// Unprepared buffer: the aggregated path would have
				// folded this into a partial; one-record bulk calls sum
				// to the identical account state.
				e.bulkSink(rec.T.Core, rec.Path, rec.Cycles, 1)
			} else if e.bulkSink == nil || inlineCharges {
				if e.sink != nil {
					e.sink(rec.T.Core, rec.Path, rec.Cycles)
				}
			}
			if e.observer != nil {
				e.observer(rec.T, rec.Path, rec.Cycles, rec.Remote)
			}
		default:
			if e.applier != nil {
				e.applier(rec)
			}
		}
	}
}
