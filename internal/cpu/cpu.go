// Package cpu models the cores of the simulated machine: the translation
// front-end (TLB, page walker with medium-dependent costs, accessed/dirty
// bit maintenance), data-access cost helpers, and the inter-processor
// interrupt machinery used for TLB shootdowns.
package cpu

import (
	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
	"daxvm/internal/tlb"
	"daxvm/internal/topo"
)

// pteLineCacheSize is how many distinct PTE cache lines a core keeps warm;
// it discriminates sequential from random access, reproducing Table II.
const pteLineCacheSize = 192

// Set is the machine's collection of cores.
type Set struct {
	Cores []*Core

	// Topo is the machine's NUMA layout (nil = flat single-node).
	Topo *topo.Topology

	// Trace receives TLB-shootdown events; Spans opens a causal span
	// per shootdown with its IPI cost typed as wait. Nil = disabled.
	Trace *obs.Tracer
	Spans *span.Collector

	// In-flight IPI window: ipiInflight remote IPIs have acknowledgement
	// deadlines no earlier than ipiInflightUntil. Overlapping shootdowns
	// accumulate; once virtual time passes the deadline the window is
	// empty. Scalar on purpose — tracking exact per-IPI deadlines would
	// allocate on the shootdown hot path for a gauge that only needs the
	// saturation envelope.
	ipiInflight      uint64
	ipiInflightUntil uint64
}

// NewSet creates n cores on a flat single-node machine.
func NewSet(n int) *Set {
	s := &Set{Cores: make([]*Core, n)}
	for i := range s.Cores {
		s.Cores[i] = &Core{
			ID:       i,
			TLB:      tlb.New(),
			pteLines: make(map[lineKey]struct{}, pteLineCacheSize),
		}
	}
	return s
}

// SetTopology assigns each core its home NUMA node. Walk and shootdown
// costs become distance-sensitive once the topology spans >1 node.
func (s *Set) SetTopology(tp *topo.Topology) {
	s.Topo = tp
	for _, c := range s.Cores {
		c.Node = tp.NodeOfCore(c.ID)
		c.multiNode = tp.Multi()
	}
}

// Core is one hardware thread.
type Core struct {
	ID  int
	TLB *tlb.TLB

	// Node is the core's home NUMA node; multiNode is true when the
	// machine spans more than one (so remote surcharges can apply).
	Node      mem.NodeID
	multiNode bool

	// bound is the sim thread currently executing on this core (IPI
	// targets are charged through it).
	bound *sim.Thread

	// PTE-line reuse cache for the walk cost model. The FIFO ring is a
	// fixed array so the per-walk touch path never allocates.
	pteLines   map[lineKey]struct{}
	pteRing    [pteLineCacheSize]lineKey
	pteHead    int // oldest entry when pteCount == pteLineCacheSize
	pteCount   int
	pteLineGen uint64

	// WalkHist, when set, records the latency of every charged page
	// walk (registered as the cpu.walk_latency histogram).
	WalkHist *obs.Histogram

	Stats CoreStats
}

// CoreStats aggregates per-core MMU behaviour (the DaxVM performance
// monitor reads these).
type CoreStats struct {
	WalkCycles     uint64
	Walks          uint64
	PMemWalks      uint64
	Faults         uint64
	IPIsSent       uint64
	IPIsReceived   uint64
	ShootdownWait  uint64
	DataReadBytes  uint64
	DataWriteBytes uint64
}

type lineKey struct {
	node uint64 // pt.Node.Serial: a recycled node starts cold
	line int
	gen  uint64
}

// Bind associates a sim thread with the core (the thread "runs on" it).
func (c *Core) Bind(t *sim.Thread) { c.bound = t }

// Unbind clears the association.
func (c *Core) Unbind() { c.bound = nil }

// Bound returns the running thread, if any.
func (c *Core) Bound() *sim.Thread { return c.bound }

// TranslateResult describes the outcome of a translation attempt.
type TranslateResult uint8

const (
	// TransOK: translation present with sufficient permission.
	TransOK TranslateResult = iota
	// TransNotPresent: no valid leaf entry — demand fault.
	TransNotPresent
	// TransNoWrite: present but write attempted on read-only mapping —
	// permission (dirty-tracking) fault.
	TransNoWrite
)

// Translate performs the hardware part of an access to va: TLB lookup,
// page walk on miss (charging medium-dependent cycles), A/D bit updates
// and TLB fill. The fault paths are the caller's (mm's) job.
func (c *Core) Translate(t *sim.Thread, as *pt.AddressSpace, va mem.VirtAddr, write bool) (pt.Entry, TranslateResult) {
	if e, ok := c.TLB.Lookup(va); ok {
		if write && !e.Writable {
			return e.PTE, TransNoWrite
		}
		if write && !e.PTE.Dirty() {
			// Hardware re-walks to set the dirty bit; approximate with
			// a short walk charge and update the cached entry.
			c.chargeWalk(t, as, va, true)
			e.PTE |= pt.BitDirty
			c.setLeafBits(t, as, va, true)
		}
		return e.PTE, TransOK
	}

	entry, level, writable, present := c.walk(t, as, va)
	if !present {
		return 0, TransNotPresent
	}
	if write && !writable {
		return entry, TransNoWrite
	}
	c.setLeafBits(t, as, va, write)
	if write {
		entry |= pt.BitDirty
	}
	if leaf, _ := as.LeafNode(va); leaf != nil && leaf.NoAD {
		// DaxVM file tables drop A/D maintenance entirely: the hardware
		// never needs the dirty-bit assist walk on these mappings, so
		// cache the translation as already-dirty.
		entry |= pt.BitDirty | pt.BitAccessed
	}
	c.TLB.Insert(va, entry, writable, level == pt.LevelPMD)
	return entry, TransOK
}

// walk performs a charged page walk.
func (c *Core) walk(t *sim.Thread, as *pt.AddressSpace, va mem.VirtAddr) (pt.Entry, int, bool, bool) {
	entry, level, writable, ok := as.Lookup(va)
	c.chargeWalkCost(t, as, va, level, ok)
	return entry, level, writable, ok
}

// chargeWalk charges a walk without resolving (dirty-bit re-walk).
func (c *Core) chargeWalk(t *sim.Thread, as *pt.AddressSpace, va mem.VirtAddr, _ bool) {
	_, level, _, ok := as.Lookup(va)
	c.chargeWalkCost(t, as, va, level, ok)
}

// Walk attribution labels, precomposed so the per-walk charge path never
// builds a string.
const (
	walkAborted        = "walk.aborted"
	walkHugeLabel      = "walk.huge"
	walkPTECachedDRAM  = "walk.pte_cached_dram"
	walkPTECachedPMem  = "walk.pte_cached_pmem"
	walkPTEMissDRAM    = "walk.pte_miss_dram"
	walkPTEMissDRAMRem = "walk.pte_miss_dram_remote"
	walkPTEMissPMem    = "walk.pte_miss_pmem"
	walkPTEMissPMemRem = "walk.pte_miss_pmem_remote"
)

// chargeWalkCost books one walk: the cycles go to the cycle account under
// "walk.<kind>" (nested below whatever path triggered the translation),
// the per-core stats, and the walk-latency histogram.
func (c *Core) chargeWalkCost(t *sim.Thread, as *pt.AddressSpace, va mem.VirtAddr, level int, ok bool) {
	cycles, label := c.walkCost(as, va, level, ok)
	t.ChargeAs(label, cycles)
	c.Stats.WalkCycles += cycles
	c.Stats.Walks++
	c.WalkHist.Observe(cycles)
}

// walkCost computes the cycle cost of a walk resolving at the given level,
// using the leaf node's medium and the PTE-line reuse cache, and names the
// walk kind for cycle attribution.
func (c *Core) walkCost(as *pt.AddressSpace, va mem.VirtAddr, level int, ok bool) (uint64, string) {
	if !ok {
		// Aborted walk; upper levels only.
		return cost.WalkUpperLevels + cost.WalkPTECachedDRAM, walkAborted
	}
	if level >= pt.LevelPMD {
		return cost.WalkHuge, walkHugeLabel
	}
	leaf, idx := as.LeafNode(va)
	if leaf == nil {
		return cost.WalkUpperLevels + cost.WalkPTECachedDRAM, walkPTECachedDRAM
	}
	hot := c.touchPTELine(leaf, idx/mem.PTEsPerCacheLine)
	// The leaf fetch reaches across the interconnect when the table node
	// lives on another socket's DIMMs; the cached cases stay cheap (the
	// line is already in this core's cache hierarchy).
	remote := c.multiNode && leaf.Loc.Node != c.Node
	if leaf.Loc.Medium == mem.PMem {
		c.Stats.PMemWalks++
		if hot {
			return cost.WalkUpperLevels + cost.WalkPTECachedPMem, walkPTECachedPMem
		}
		if remote {
			return cost.WalkUpperLevels + cost.WalkPTEMissPMem + cost.RemotePMemWalkExtra, walkPTEMissPMemRem
		}
		return cost.WalkUpperLevels + cost.WalkPTEMissPMem, walkPTEMissPMem
	}
	if hot {
		return cost.WalkUpperLevels + cost.WalkPTECachedDRAM, walkPTECachedDRAM
	}
	if remote {
		return cost.WalkUpperLevels + cost.WalkPTEMissDRAM + cost.RemoteDRAMWalkExtra, walkPTEMissDRAMRem
	}
	return cost.WalkUpperLevels + cost.WalkPTEMissDRAM, walkPTEMissDRAM
}

// touchPTELine records a PTE cache-line touch, reporting whether it was
// already warm.
func (c *Core) touchPTELine(node *pt.Node, line int) bool {
	k := lineKey{node.Serial(), line, c.pteLineGen}
	if _, ok := c.pteLines[k]; ok {
		return true
	}
	if c.pteCount == pteLineCacheSize {
		delete(c.pteLines, c.pteRing[c.pteHead])
		c.pteRing[c.pteHead] = k
		c.pteHead = (c.pteHead + 1) % pteLineCacheSize
	} else {
		c.pteRing[(c.pteHead+c.pteCount)%pteLineCacheSize] = k
		c.pteCount++
	}
	c.pteLines[k] = struct{}{}
	return false
}

// DropPTELines invalidates the PTE-line reuse cache (after table
// migration or teardown the old lines are dead).
func (c *Core) DropPTELines() {
	c.pteLineGen++
	c.pteLines = make(map[lineKey]struct{}, pteLineCacheSize)
	c.pteHead, c.pteCount = 0, 0
}

// setLeafBits sets accessed (and dirty on write) bits on the leaf entry
// unless the owning node opts out (DaxVM file tables drop A/D upkeep).
func (c *Core) setLeafBits(t *sim.Thread, as *pt.AddressSpace, va mem.VirtAddr, write bool) {
	leaf, idx := as.LeafNode(va)
	if leaf == nil || leaf.NoAD {
		return
	}
	e := leaf.Entries[idx]
	ne := e | pt.BitAccessed
	if write {
		ne |= pt.BitDirty
	}
	if ne != e {
		leaf.SetEntry(t, idx, ne)
	}
}

// --- shootdowns -------------------------------------------------------------

// ShootdownKind selects the invalidation applied on targets.
type ShootdownKind uint8

const (
	// ShootPages invalidates an explicit page list.
	ShootPages ShootdownKind = iota
	// ShootRange invalidates a VA range.
	ShootRange
	// ShootFull flushes the whole TLB.
	ShootFull
)

// Shootdown performs a TLB shootdown from the calling thread's core to the
// target cores: the initiator also invalidates locally, sends IPIs, and
// waits for all acknowledgements; each running target is charged the
// handler cost. This is the inherently non-scalable operation that
// DaxVM's asynchronous batched unmapping amortizes.
func (s *Set) Shootdown(t *sim.Thread, initiator *Core, targets []*Core, kind ShootdownKind, pages []mem.VirtAddr, start, end mem.VirtAddr) {
	t.Yield() // synchronization point: remote clocks are examined
	began := t.Now()
	t.PushAttr("shootdown")
	defer t.PopAttr()
	s.Spans.Begin(t, "shootdown")
	defer s.Spans.End(t)
	var tag string
	var nPages uint64
	switch kind {
	case ShootPages:
		tag, nPages = "pages", uint64(len(pages))
	case ShootRange:
		tag, nPages = "range", uint64((end-start)/mem.PageSize)
	case ShootFull:
		tag = "full"
	}
	// Local invalidation.
	applyInval(initiator.TLB, kind, pages, start, end)
	switch kind {
	case ShootPages:
		t.ChargeAs("inval", cost.TLBInvlpgLocal*uint64(len(pages)))
	case ShootRange:
		t.ChargeAs("inval", cost.TLBInvlpgLocal*uint64((end-start)/mem.PageSize))
	case ShootFull:
		t.ChargeAs("inval", cost.TLBFlushLocal)
	}
	if len(targets) == 0 {
		s.Trace.Emit(obs.EvShootdown, initiator.ID, began, t.Now()-began, tag, nPages)
		return
	}
	initiator.Stats.IPIsSent++
	t.ChargeAs("ipi_send", cost.IPIBase+cost.IPIPerTarget*uint64(len(targets)))
	if initiator.multiNode {
		// Cross-socket IPIs pay the interconnect round trip per
		// other-node target (delivery + acknowledgement cross UPI).
		crossSocket := uint64(0)
		for _, tc := range targets {
			if tc != initiator && tc.Node != initiator.Node {
				crossSocket++
			}
		}
		if crossSocket > 0 {
			t.ChargeAs("ipi_send", cost.IPICrossSocketPerTarget*crossSocket)
		}
	}
	remote := 0
	for _, tc := range targets {
		if tc == initiator {
			continue
		}
		applyInval(tc.TLB, kind, pages, start, end)
		tc.Stats.IPIsReceived++
		remote++
		if b := tc.bound; b != nil {
			// The target handles the interrupt wherever it is in its
			// own timeline; charge the handler there. The initiator's
			// wait is modeled by the fixed acknowledgement latency
			// below — NOT by the target's (possibly far-ahead) clock,
			// which in the DES only reflects locally-buffered progress.
			b.AddRemote("shootdown.ipi_handler", cost.IPITargetHandler)
		}
	}
	if remote > 0 {
		if t.Now() >= s.ipiInflightUntil {
			s.ipiInflight = uint64(remote)
		} else {
			s.ipiInflight += uint64(remote)
		}
		s.ipiInflightUntil = t.Now() + cost.IPIAckLatency
		initiator.Stats.ShootdownWait += cost.IPIAckLatency
		t.ChargeAs("ipi_wait", cost.IPIAckLatency)
	}
	s.Trace.Emit(obs.EvShootdown, initiator.ID, began, t.Now()-began, tag, nPages)
}

// InflightIPIs reports how many remote shootdown IPIs are still awaiting
// acknowledgement at virtual time now — the IPI saturation gauge. The
// window is an envelope: overlapping shootdowns accumulate until the
// latest acknowledgement deadline passes, then the count drops to zero.
// Pure read for gauge sampling.
func (s *Set) InflightIPIs(now uint64) uint64 {
	if now >= s.ipiInflightUntil {
		return 0
	}
	return s.ipiInflight
}

func applyInval(tb *tlb.TLB, kind ShootdownKind, pages []mem.VirtAddr, start, end mem.VirtAddr) {
	switch kind {
	case ShootPages:
		for _, p := range pages {
			tb.InvalidatePage(p)
		}
	case ShootRange:
		tb.InvalidateRange(start, end)
	case ShootFull:
		tb.FlushAll()
	}
}
