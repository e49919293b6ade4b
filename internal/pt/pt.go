// Package pt implements simulated x86-64 four-level page tables.
//
// Nodes are 512-entry tables exactly like the hardware's; leaf entries
// carry PFN + architectural bits (present/write/accessed/dirty/PS). Interior
// entries are mirrored by Go child pointers so the simulator can descend
// without a physical address space for DRAM nodes.
//
// Two properties matter for DaxVM:
//
//   - Nodes record the Loc (medium + NUMA node) they live on (process
//     tables in DRAM, DaxVM persistent file tables in PMem); the page
//     walker charges TLB-miss costs accordingly (paper Table II), with
//     remote-node surcharges on a multi-socket topology.
//
//   - Sub-trees can be attached/detached at interior levels (PMD/PUD):
//     DaxVM splices shared pre-populated file tables into process trees and
//     applies per-process permissions at the attachment entry, relying on
//     x86's minimum-permission rule across levels.
package pt

import (
	"fmt"
	"sync/atomic"

	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// Entry is a page-table entry. Layout follows x86-64 where it matters.
type Entry uint64

// Architectural and software bits.
const (
	BitPresent  Entry = 1 << 0
	BitWrite    Entry = 1 << 1
	BitUser     Entry = 1 << 2
	BitAccessed Entry = 1 << 5
	BitDirty    Entry = 1 << 6
	BitHuge     Entry = 1 << 7 // PS: leaf at PMD/PUD level
	// BitSoftPMem is a software bit marking that the frame is on PMem
	// (bit 9, available to software on x86-64).
	BitSoftPMem Entry = 1 << 9
	// BitSoftAttached marks an interior entry that points into a shared
	// DaxVM file table (must be detached, never freed).
	BitSoftAttached Entry = 1 << 10

	pfnShift = 12
	pfnMask  = Entry(0x000F_FFFF_FFFF_F000)
)

// Present reports whether the entry is valid.
func (e Entry) Present() bool { return e&BitPresent != 0 }

// Writable reports the write-permission bit.
func (e Entry) Writable() bool { return e&BitWrite != 0 }

// Huge reports the PS bit.
func (e Entry) Huge() bool { return e&BitHuge != 0 }

// Dirty reports the dirty bit.
func (e Entry) Dirty() bool { return e&BitDirty != 0 }

// Accessed reports the accessed bit.
func (e Entry) Accessed() bool { return e&BitAccessed != 0 }

// PFN extracts the frame number.
func (e Entry) PFN() mem.PFN { return mem.PFN((e & pfnMask) >> pfnShift) }

// OnPMem reports the software PMem-frame bit.
func (e Entry) OnPMem() bool { return e&BitSoftPMem != 0 }

// Attached reports the software attached-subtree bit.
func (e Entry) Attached() bool { return e&BitSoftAttached != 0 }

// MakeEntry builds a leaf entry.
func MakeEntry(pfn mem.PFN, perm mem.Perm, onPMem, huge bool) Entry {
	e := Entry(pfn)<<pfnShift | BitPresent | BitUser
	if perm.CanWrite() {
		e |= BitWrite
	}
	if onPMem {
		e |= BitSoftPMem
	}
	if huge {
		e |= BitHuge
	}
	return e
}

// Levels: 1 = PTE (maps 4 KiB), 2 = PMD (2 MiB), 3 = PUD (1 GiB),
// 4 = PGD (512 GiB).
const (
	LevelPTE = 1
	LevelPMD = 2
	LevelPUD = 3
	LevelPGD = 4
)

// LevelShift returns the VA shift of entries at the given level.
func LevelShift(level int) uint { return uint(mem.PageShift + 9*(level-1)) }

// LevelSpan returns the bytes mapped by one entry at the given level.
func LevelSpan(level int) uint64 { return 1 << LevelShift(level) }

// index returns the table index of va at level.
func index(va mem.VirtAddr, level int) int {
	return int(uint64(va)>>LevelShift(level)) & 511
}

// NoFrame marks a node whose backing frame is not tracked by a DRAM
// pool (PMem-resident nodes, or nodes allocated without a pool).
const NoFrame = ^mem.PFN(0)

// Node is one 512-entry table.
type Node struct {
	Entries  [mem.PTEsPerTable]Entry
	children [mem.PTEsPerTable]*Node
	Level    int
	Loc      mem.Loc

	// Frame is the DRAM frame holding this node (NoFrame when the node
	// lives on PMem or was allocated outside a pool). Deallocation paths
	// return it to the pool so double frees are caught.
	Frame mem.PFN

	// Shared marks DaxVM file-table nodes: attach points reference them
	// and teardown must detach rather than free.
	Shared bool

	// NoAD drops accessed/dirty bit maintenance on this node's entries
	// (DaxVM file tables: A/D bits only serve volatile-memory
	// reclamation, irrelevant for DAX).
	NoAD bool

	// Backing mirrors entries into simulated PMem for persistent file
	// tables, so crash tests can rebuild them from media.
	Backing  *pmem.Device
	BackAddr mem.PhysAddr

	// Ptl is the split page-table lock guarding this node's entries
	// (Linux's per-PMD ptl). Used on fault paths.
	Ptl sim.SpinLock

	// live counts present entries + children, for teardown pruning.
	live int

	// serial identifies this incarnation of the node (see Serial).
	serial uint64
}

// nodeSerials numbers node incarnations process-wide.
var nodeSerials atomic.Uint64

// NewNode allocates a table node at the given level at the given
// location (medium + NUMA node).
func NewNode(level int, loc mem.Loc) *Node {
	//lint:ignore hotalloc the allocation is the modeled work: one table node per simulated page-table page
	return &Node{Level: level, Loc: loc, Frame: NoFrame, serial: nodeSerials.Add(1)}
}

// Reset turns a freed node back into an empty one at the given level and
// location, as NewNode would return it, with a new Serial. Allocators
// that recycle freed nodes call it instead of NewNode.
func (n *Node) Reset(level int, loc mem.Loc) {
	*n = Node{Level: level, Loc: loc, Frame: NoFrame, serial: nodeSerials.Add(1)}
}

// Serial identifies this incarnation of the node: no two nodes share
// one, and a node recycled through Reset gets a new one. Caches keyed by
// it never mistake a recycled node for the table it used to be.
func (n *Node) Serial() uint64 { return n.serial }

// Child returns the interior child at idx.
func (n *Node) Child(idx int) *Node { return n.children[idx] }

// Live returns the number of populated slots.
func (n *Node) Live() int { return n.live }

// SetEntry writes a leaf/interior entry value, mirroring to PMem backing
// if present (cached store; the caller batches Flush via FlushEntries).
func (n *Node) SetEntry(t *sim.Thread, idx int, e Entry) {
	old := n.Entries[idx]
	n.Entries[idx] = e
	switch {
	case old == 0 && e != 0:
		n.live++
	case old != 0 && e == 0:
		n.live--
	}
	if n.Backing != nil {
		var buf [8]byte
		putLE64(buf[:], uint64(e))
		n.Backing.WriteCached(t, n.BackAddr+mem.PhysAddr(idx*8), buf[:])
	}
}

// SetChild links an interior entry to a child node.
func (n *Node) SetChild(t *sim.Thread, idx int, child *Node, e Entry) {
	if n.Level <= LevelPTE {
		panic("pt: SetChild on PTE level")
	}
	n.children[idx] = child
	n.SetEntry(t, idx, e)
}

// ClearSlot removes entry and child link at idx.
func (n *Node) ClearSlot(t *sim.Thread, idx int) {
	n.children[idx] = nil
	n.SetEntry(t, idx, 0)
}

// FlushEntries flushes the backing lines of entries [lo,hi) (persistent
// file tables batch flushes at cache-line granularity — 8 PTEs per line).
func (n *Node) FlushEntries(t *sim.Thread, lo, hi int) {
	if n.Backing == nil {
		return
	}
	start := mem.AlignedDown(uint64(lo*8), mem.CacheLineSize)
	end := mem.AlignedUp(uint64(hi*8), mem.CacheLineSize)
	n.Backing.Flush(t, n.BackAddr+mem.PhysAddr(start), end-start)
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// AddressSpace is a process page-table tree rooted at a PGD.
type AddressSpace struct {
	Root *Node

	// AllocNode is called to allocate interior nodes (charges DRAM pool).
	AllocNode func(t *sim.Thread, level int) *Node
	// FreeNode returns a node to the pool.
	FreeNode func(t *sim.Thread, n *Node)
}

// NewAddressSpace creates an empty tree with the given node allocator.
func NewAddressSpace(alloc func(t *sim.Thread, level int) *Node, free func(t *sim.Thread, n *Node)) *AddressSpace {
	as := &AddressSpace{AllocNode: alloc, FreeNode: free}
	as.Root = alloc(nil, LevelPGD)
	return as
}

// ensurePath walks (allocating) interior nodes down to targetLevel and
// returns the node whose entries are at targetLevel.
func (as *AddressSpace) ensurePath(t *sim.Thread, va mem.VirtAddr, targetLevel int) *Node {
	n := as.Root
	for lvl := LevelPGD; lvl > targetLevel; lvl-- {
		idx := index(va, lvl)
		child := n.children[idx]
		if child == nil {
			child = as.AllocNode(t, lvl-1)
			n.SetChild(t, idx, child, BitPresent|BitWrite|BitUser)
		}
		n = child
	}
	return n
}

// Map installs a leaf translation for va at the given level (LevelPTE for
// 4 KiB, LevelPMD for 2 MiB huge).
func (as *AddressSpace) Map(t *sim.Thread, va mem.VirtAddr, e Entry, level int) {
	if level == LevelPMD && !e.Huge() {
		panic("pt: PMD leaf without PS bit")
	}
	n := as.ensurePath(t, va, level)
	n.SetEntry(t, index(va, level), e)
}

// Lookup resolves va structurally (no cost charging — the cpu package's
// walker charges). It returns the leaf entry, its level, and the effective
// writability honoring the minimum-permission rule across levels.
func (as *AddressSpace) Lookup(va mem.VirtAddr) (e Entry, level int, writable bool, ok bool) {
	n := as.Root
	writable = true
	for lvl := LevelPGD; lvl >= LevelPTE; lvl-- {
		idx := index(va, lvl)
		ent := n.Entries[idx]
		if !ent.Present() {
			return 0, lvl, false, false
		}
		if !ent.Writable() {
			writable = false
		}
		if lvl == LevelPTE || ent.Huge() {
			return ent, lvl, writable && ent.Writable(), true
		}
		n = n.children[idx]
		if n == nil {
			return 0, lvl, false, false
		}
	}
	return 0, 0, false, false
}

// NodePath returns the chain of nodes visited resolving va, outermost
// first. Used by the walker for per-level charging.
func (as *AddressSpace) NodePath(va mem.VirtAddr) []*Node {
	path := make([]*Node, 0, 4)
	n := as.Root
	for lvl := LevelPGD; lvl >= LevelPTE; lvl-- {
		path = append(path, n)
		idx := index(va, lvl)
		ent := n.Entries[idx]
		if !ent.Present() || lvl == LevelPTE || ent.Huge() {
			return path
		}
		n = n.children[idx]
		if n == nil {
			return path
		}
	}
	return path
}

// LeafNode returns the node holding va's leaf entry and the index within
// it, or nil if the path is incomplete.
func (as *AddressSpace) LeafNode(va mem.VirtAddr) (*Node, int) {
	n := as.Root
	for lvl := LevelPGD; lvl >= LevelPTE; lvl-- {
		idx := index(va, lvl)
		ent := n.Entries[idx]
		if !ent.Present() {
			return nil, 0
		}
		if lvl == LevelPTE || ent.Huge() {
			return n, idx
		}
		n = n.children[idx]
		if n == nil {
			return nil, 0
		}
	}
	return nil, 0
}

// Attach splices a shared sub-tree (DaxVM file table fragment) at the
// entry covering va at attachLevel. perm applies at the attachment entry —
// the per-process permission of the shared mapping.
func (as *AddressSpace) Attach(t *sim.Thread, va mem.VirtAddr, attachLevel int, sub *Node, perm mem.Perm) {
	if sub.Level != attachLevel-1 {
		panic(fmt.Sprintf("pt: attaching level-%d node at level %d", sub.Level, attachLevel))
	}
	if !mem.IsAligned(uint64(va), LevelSpan(attachLevel)) {
		panic("pt: unaligned attach")
	}
	n := as.ensurePath(t, va, attachLevel)
	e := BitPresent | BitUser | BitSoftAttached
	if perm.CanWrite() {
		e |= BitWrite
	}
	n.SetChild(t, index(va, attachLevel), sub, e)
}

// Detach removes an attached sub-tree, returning it.
func (as *AddressSpace) Detach(t *sim.Thread, va mem.VirtAddr, attachLevel int) *Node {
	n := as.Root
	for lvl := LevelPGD; lvl > attachLevel; lvl-- {
		idx := index(va, lvl)
		n = n.children[idx]
		if n == nil {
			return nil
		}
	}
	idx := index(va, attachLevel)
	if !n.Entries[idx].Attached() {
		return nil
	}
	sub := n.children[idx]
	n.ClearSlot(t, idx)
	return sub
}

// AttachedPerm rewrites the permission bits of an attachment entry
// (DaxVM mprotect over a whole mapping).
func (as *AddressSpace) AttachedPerm(t *sim.Thread, va mem.VirtAddr, attachLevel int, perm mem.Perm) bool {
	n := as.Root
	for lvl := LevelPGD; lvl > attachLevel; lvl-- {
		n = n.children[index(va, lvl)]
		if n == nil {
			return false
		}
	}
	idx := index(va, attachLevel)
	e := n.Entries[idx]
	if !e.Attached() {
		return false
	}
	e &^= BitWrite
	if perm.CanWrite() {
		e |= BitWrite
	}
	child := n.children[idx]
	n.SetChild(t, idx, child, e)
	return true
}

// ClearRange removes leaf translations in [start, end), returning how many
// present leaves were cleared. Attached sub-trees inside the range are
// detached (not recursed into). Empty non-shared interior nodes are freed.
func (as *AddressSpace) ClearRange(t *sim.Thread, start, end mem.VirtAddr) (cleared uint64) {
	return as.clearIn(t, as.Root, 0, start, end)
}

// clearIn clears [start,end) within node n which covers base..base+span.
func (as *AddressSpace) clearIn(t *sim.Thread, n *Node, base mem.VirtAddr, start, end mem.VirtAddr) (cleared uint64) {
	span := LevelSpan(n.Level)
	lo := 0
	if start > base {
		lo = int((uint64(start) - uint64(base)) / span)
	}
	hi := mem.PTEsPerTable - 1
	if covEnd := uint64(base) + span*mem.PTEsPerTable; uint64(end) < covEnd {
		hi = int((uint64(end) - 1 - uint64(base)) / span)
	}
	for idx := lo; idx <= hi; idx++ {
		e := n.Entries[idx]
		if !e.Present() {
			continue
		}
		slotBase := base + mem.VirtAddr(uint64(idx)*span)
		slotEnd := slotBase + mem.VirtAddr(span)
		covered := start <= slotBase && end >= slotEnd
		switch {
		case n.Level == LevelPTE || e.Huge():
			if !covered {
				panic("pt: partial clear of a leaf entry")
			}
			n.SetEntry(t, idx, 0)
			if e.Huge() {
				cleared += span / mem.PageSize
			} else {
				cleared++
			}
		case e.Attached():
			if !covered {
				// DaxVM mappings are unmapped whole; a partial clear
				// would mutate a shared file table.
				panic("pt: partial clear of attached fragment")
			}
			n.ClearSlot(t, idx)
			cleared += span / mem.PageSize // whole fragment detached
		default:
			child := n.children[idx]
			if child == nil {
				continue
			}
			cleared += as.clearIn(t, child, slotBase, start, end)
			if child.live == 0 && !child.Shared {
				n.ClearSlot(t, idx)
				if as.FreeNode != nil {
					as.FreeNode(t, child)
				}
			}
		}
	}
	return cleared
}
