// Package mm models the Linux virtual-memory manager for one process:
// the VMA red-black tree guarded by mmap_sem, demand paging of DAX file
// mappings, MAP_POPULATE, software dirty tracking through write-protect
// faults feeding the page-cache radix tree, and munmap with the x86
// batched-invalidation heuristic.
//
// This is the baseline whose costs DaxVM (internal/core) removes; its code
// paths mirror the paper's Table IV inventory of mmap_sem users.
package mm

import (
	"cmp"
	"fmt"
	"slices"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/dram"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/pt"
	"daxvm/internal/radix"
	"daxvm/internal/rbtree"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// MapFlags are mmap(2) flags the simulator distinguishes.
type MapFlags uint32

const (
	// MapShared is MAP_SHARED (the only sharing mode DAX supports here).
	MapShared MapFlags = 1 << iota
	// MapPopulate pre-faults the whole mapping at mmap time.
	MapPopulate
	// MapSync is MAP_SYNC: write faults must synchronously commit dirty
	// file metadata so user-space flushes alone guarantee durability.
	MapSync
)

// VMA is one virtual memory area.
type VMA struct {
	Start, End mem.VirtAddr
	Perm       mem.Perm
	Flags      MapFlags
	Inode      *vfs.Inode
	FileOff    uint64 // bytes, page-aligned

	// DaxVM fields (owned by internal/core).
	DaxVM       bool
	Ephemeral   bool
	NoSync      bool
	UnmapAsync  bool
	AttachLevel int

	// recycle marks a VMA that Mmap allocated, which munmap may hand
	// back to newVMA once it is gone from the tree. VMAs built elsewhere
	// (DaxVM's) stay referenced by their owners after unmap.
	recycle bool
}

// Len returns the VMA length in bytes.
func (v *VMA) Len() uint64 { return uint64(v.End - v.Start) }

// MM is one process's memory manager.
type MM struct {
	// Sem is mmap_sem. Everything in Table IV of the paper queues here.
	Sem *sim.RWSem
	// AS is the process page-table tree.
	AS *pt.AddressSpace

	vmas  rbtree.Tree[*VMA] // keyed by Start
	dram  *dram.Pool
	fs    vfs.FS
	cpus  *cpu.Set
	cores map[int]*cpu.Core // cores this process runs on (shootdown set)
	// coreList is cores in core-id order, rebuilt when a core registers.
	coreList []*cpu.Core
	// freeNodes holds page-table nodes the address space freed, for
	// newNode to recycle.
	freeNodes []*pt.Node
	// freeVMAs holds unmapped VMAs for newVMA to recycle, and
	// overlapping is munmapRange's scratch list.
	freeVMAs    []*VMA
	overlapping []*VMA
	// forceUnmapFn is the vfs.Inode.Mappers callback of every VMA of this
	// process (the owner key is the VMA), made once so that registering
	// a mapping allocates no closure.
	forceUnmapFn func(t *sim.Thread, owner any)

	vaCursor mem.VirtAddr

	// policy places this process's page-table frames (and is inherited
	// by DaxVM's volatile tables); ileave is its interleave cursor.
	policy topo.Policy
	ileave uint64

	// HugePagesEnabled permits PMD-sized DAX mappings when alignment and
	// extent contiguity allow (Linux's DAX huge page support).
	HugePagesEnabled bool

	// EphemeralLookup lets DaxVM's ephemeral heap resolve VMAs that are
	// intentionally absent from the VMA tree (fault paths consult it
	// after the tree misses).
	EphemeralLookup func(va mem.VirtAddr) *VMA

	// DaxWPFault handles write-protect faults on DaxVM mappings, where
	// permissions live at the attachment level and dirty tracking is
	// 2 MiB-grained. Set by internal/core.
	DaxWPFault func(t *sim.Thread, core *cpu.Core, v *VMA, va mem.VirtAddr) error

	// Trace receives VM events (faults, mmap/munmap, msync); FaultHist
	// records end-to-end fault service latency; Spans opens a causal
	// span per fault with its wait decomposition. All nil = disabled.
	Trace     *obs.Tracer
	FaultHist *obs.Histogram
	Spans     *span.Collector

	Stats Stats
}

// Stats counts VM events.
type Stats struct {
	Mmaps        uint64
	Munmaps      uint64
	MinorFaults  uint64
	HugeFaults   uint64
	WPFaults     uint64
	SpuriousWP   uint64
	MetaSyncs    uint64
	PagesMapped  uint64
	PagesCleared uint64
	Shootdowns   uint64
	FullFlushes  uint64
	MsyncPages   uint64
}

// mmBase is where file mappings start in the simulated address space.
const mmBase mem.VirtAddr = 0x7f00_0000_0000

// New creates a process memory manager.
func New(pool *dram.Pool, fs vfs.FS, cpus *cpu.Set) *MM {
	m := &MM{
		Sem:              sim.NewRWSem(cost.SchedWakeup),
		dram:             pool,
		fs:               fs,
		cpus:             cpus,
		cores:            make(map[int]*cpu.Core),
		vaCursor:         mmBase,
		HugePagesEnabled: true,
	}
	m.forceUnmapFn = func(t *sim.Thread, owner any) { m.forceUnmapLocked(t, owner.(*VMA)) }
	m.AS = pt.NewAddressSpace(
		func(t *sim.Thread, level int) *pt.Node {
			node := mem.NodeID(0)
			if t != nil && pool != nil {
				node = m.PickNode(t)
				n := m.newNode(level, mem.Loc{Medium: mem.DRAM, Node: node})
				n.Frame = pool.AllocFrameOn(t, node)
				return n
			}
			return m.newNode(level, mem.Loc{Medium: mem.DRAM, Node: node})
		},
		func(t *sim.Thread, n *pt.Node) {
			if t != nil && pool != nil && n.Frame != pt.NoFrame {
				pool.FreeFrame(t, n.Frame)
				n.Frame = pt.NoFrame
			}
			m.freeNodes = append(m.freeNodes, n)
		},
	)
	return m
}

// newNode returns an empty table node, recycling one the address space
// freed before allocating a new one. Mapping churn (mmap, fault, munmap)
// frees and reallocates table nodes on every request; recycling keeps
// that from turning into host garbage. A recycled node gets a new
// pt.Node.Serial, so the walker's PTE-line cache treats it as cold, as
// it would a fresh allocation.
func (m *MM) newNode(level int, loc mem.Loc) *pt.Node {
	if k := len(m.freeNodes); k > 0 {
		n := m.freeNodes[k-1]
		m.freeNodes[k-1] = nil
		m.freeNodes = m.freeNodes[:k-1]
		n.Reset(level, loc)
		return n
	}
	return pt.NewNode(level, loc)
}

// SetPlacement selects the process's memory-placement policy.
func (m *MM) SetPlacement(p topo.Policy) { m.policy = p }

// Placement returns the process's placement policy.
func (m *MM) Placement() topo.Policy { return m.policy }

// PickNode applies the placement policy for an allocation requested by
// t (whose core determines the local node). Always 0 on flat machines.
func (m *MM) PickNode(t *sim.Thread) mem.NodeID {
	if m.cpus == nil || !m.cpus.Topo.Multi() {
		return 0
	}
	return m.policy.Pick(m.cpus.Topo, m.cpus.Topo.NodeOfCore(t.Core), &m.ileave)
}

// multiNode reports whether locality matters on this machine.
func (m *MM) multiNode() bool { return m.cpus != nil && m.cpus.Topo.Multi() }

// NodeOfMapped resolves which NUMA node's PMem backs the present
// translation at va, structurally (no charges). ok=false when va is not
// mapped to PMem.
func (m *MM) NodeOfMapped(va mem.VirtAddr) (mem.NodeID, bool) {
	e, _, _, ok := m.AS.Lookup(va)
	if !ok || !e.OnPMem() {
		return 0, false
	}
	return m.fs.Device().NodeOfPFN(e.PFN()), true
}

// FS returns the file system the process maps files from.
func (m *MM) FS() vfs.FS { return m.fs }

// RunOn registers a core as running this process (shootdown targeting).
func (m *MM) RunOn(c *cpu.Core) {
	if m.cores[c.ID] == c {
		return
	}
	m.cores[c.ID] = c
	// A new slice, not an in-place update: callers may still hold the
	// previous one.
	out := make([]*cpu.Core, 0, len(m.cores))
	for _, c := range m.cores {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *cpu.Core) int { return cmp.Compare(a.ID, b.ID) })
	m.coreList = out
}

// Cores returns the registered cores in core-id order. The slice is
// shared and must not be modified; a later RunOn replaces it rather than
// changing it.
func (m *MM) Cores() []*cpu.Core { return m.coreList }

// FindVMA returns the VMA containing va (caller holds Sem).
func (m *MM) FindVMA(t *sim.Thread, va mem.VirtAddr) *VMA {
	t.Charge(cost.VMAFind)
	_, v, ok := m.vmas.Floor(uint64(va))
	if ok && va < v.End {
		return v
	}
	if m.EphemeralLookup != nil {
		return m.EphemeralLookup(va)
	}
	return nil
}

// VMACount reports live VMAs.
func (m *MM) VMACount() int { return m.vmas.Len() }

// EachVMA visits every tree VMA (caller holds Sem).
func (m *MM) EachVMA(fn func(v *VMA)) {
	m.vmas.All(func(_ uint64, v *VMA) bool { fn(v); return true })
}

// InsertVMA adds a VMA to the tree (caller holds Sem for writing).
func (m *MM) InsertVMA(t *sim.Thread, v *VMA) {
	t.Charge(cost.VMAInsert)
	m.vmas.Insert(uint64(v.Start), v)
}

// EraseVMA removes a VMA (caller holds Sem for writing).
func (m *MM) EraseVMA(t *sim.Thread, v *VMA) {
	t.Charge(cost.VMAErase)
	m.vmas.Delete(uint64(v.Start))
}

// GetUnmappedArea finds a free aligned virtual range (caller holds Sem).
func (m *MM) GetUnmappedArea(t *sim.Thread, length uint64, align uint64) mem.VirtAddr {
	t.Charge(cost.GetUnmappedArea)
	if align < mem.PageSize {
		align = mem.PageSize
	}
	va := mem.VirtAddr(mem.AlignedUp(uint64(m.vaCursor), align))
	for {
		_, v, ok := m.vmas.Floor(uint64(va))
		if ok && va < v.End {
			va = mem.VirtAddr(mem.AlignedUp(uint64(v.End), align))
			continue
		}
		if nk, nv, ok := m.vmas.Ceiling(uint64(va)); ok && uint64(va)+length > nk {
			va = mem.VirtAddr(mem.AlignedUp(uint64(nv.End), align))
			continue
		}
		break
	}
	m.vaCursor = va + mem.VirtAddr(length)
	return va
}

// Mmap maps a shared DAX file mapping and returns its base address.
// Costs: mmap_sem write, VA search, VMA insert; with MapPopulate also the
// full population walk.
func (m *MM) Mmap(t *sim.Thread, core *cpu.Core, in *vfs.Inode, fileOff, length uint64, perm mem.Perm, flags MapFlags) (mem.VirtAddr, error) {
	if length == 0 || !mem.IsAligned(fileOff, mem.PageSize) {
		return 0, fmt.Errorf("mm: bad mmap args off=%d len=%d", fileOff, length)
	}
	began := t.Now()
	t.Charge(cost.MmapFixed)
	m.Sem.Lock(t, cost.SemAcquireFast)
	length = mem.AlignedUp(length, mem.PageSize)
	va := m.GetUnmappedArea(t, length, mem.PageSize)
	v := m.newVMA()
	*v = VMA{
		Start: va, End: va + mem.VirtAddr(length),
		Perm: perm, Flags: flags, Inode: in, FileOff: fileOff,
		recycle: true,
	}
	m.InsertVMA(t, v)
	in.Mappers[v] = m.forceUnmapFn
	m.Stats.Mmaps++
	if flags&MapPopulate != 0 {
		m.populateRange(t, core, v, v.Start, v.End)
	}
	m.Sem.Unlock(t, cost.SemReleaseFast)
	m.Trace.Emit(obs.EvMmap, coreID(core), began, t.Now()-began, "", length/mem.PageSize)
	return va, nil
}

// coreID names the trace track for a (possibly nil) core.
func coreID(c *cpu.Core) int {
	if c == nil {
		return 0
	}
	return c.ID
}

// populateRange installs clean (write-protected when dirty tracking
// applies) translations for [start,end) of the VMA. Caller holds Sem.
func (m *MM) populateRange(t *sim.Thread, core *cpu.Core, v *VMA, start, end mem.VirtAddr) {
	va := start
	for va < end {
		if m.tryHuge(t, v, va, end, false) {
			m.Stats.PagesMapped += mem.HugeSize / mem.PageSize
			va += mem.HugeSize
			continue
		}
		fileBlock := (uint64(va-v.Start) + v.FileOff) / mem.PageSize
		phys, ok := m.fs.BlockOf(t, v.Inode, fileBlock)
		if !ok {
			va += mem.PageSize
			continue // hole (beyond EOF): leave unmapped, access will fault
		}
		e := pt.MakeEntry(mem.PFN(phys), m.initialPerm(v), true, false)
		m.AS.Map(t, va, e, pt.LevelPTE)
		t.Charge(cost.PTESetPerPage)
		m.Stats.PagesMapped++
		va += mem.PageSize
	}
}

// initialPerm: shared DAX mappings with dirty tracking start write-
// protected so the first store takes a tracking fault.
func (m *MM) initialPerm(v *VMA) mem.Perm {
	p := v.Perm
	if m.needsDirtyTracking(v) {
		p &^= mem.PermWrite
	}
	return p
}

func (m *MM) needsDirtyTracking(v *VMA) bool {
	return v.Flags&MapShared != 0 && v.Perm.CanWrite() && !v.NoSync
}

// tryHuge installs a PMD mapping at va if alignment, remaining length and
// extent contiguity allow. Returns false silently otherwise.
func (m *MM) tryHuge(t *sim.Thread, v *VMA, va, end mem.VirtAddr, chargeFault bool) bool {
	if !m.HugePagesEnabled {
		return false
	}
	if !mem.IsAligned(uint64(va), mem.HugeSize) || uint64(end-va) < mem.HugeSize {
		return false
	}
	off := uint64(va-v.Start) + v.FileOff
	if !mem.IsAligned(off, mem.HugeSize) {
		return false
	}
	if off+mem.HugeSize > mem.AlignedUp(v.Inode.Size, mem.PageSize) {
		return false // file tail does not cover the whole huge page
	}
	fileBlock := off / mem.PageSize
	phys, ok := m.fs.BlockOf(t, v.Inode, fileBlock)
	if !ok || !mem.IsAligned(phys, 512) {
		return false
	}
	// All 512 blocks must be physically contiguous.
	last, ok2 := m.fs.BlockOf(t, v.Inode, fileBlock+511)
	if !ok2 || last != phys+511 {
		return false
	}
	e := pt.MakeEntry(mem.PFN(phys), m.initialPerm(v), true, true)
	m.AS.Map(t, va, e, pt.LevelPMD)
	if chargeFault {
		t.ChargeAs("huge", cost.HugeFaultService)
	} else {
		t.Charge(cost.PTESetPerPage * 8)
	}
	return true
}

// PageFault services a demand fault at va (not-present). Access type
// write=true folds the dirty-tracking work into the same fault, like
// Linux's shared-file write fault.
func (m *MM) PageFault(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, write bool) error {
	began := t.Now()
	t.PushAttr("fault.minor")
	m.Spans.Begin(t, "fault.minor")
	err := m.pageFault(t, core, va, write)
	m.Spans.End(t)
	t.PopAttr()
	cycles := t.Now() - began
	m.FaultHist.Observe(cycles)
	tag := "read"
	if write {
		tag = "write"
	}
	m.Trace.Emit(obs.EvPageFault, coreID(core), began, cycles, tag, uint64(va))
	return err
}

func (m *MM) pageFault(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, write bool) error {
	t.Charge(cost.FaultEntry)
	m.Sem.RLock(t, cost.SemAcquireFast)
	v := m.FindVMA(t, va)
	if v == nil {
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		//lint:ignore hotalloc error path: a segfault ends the workload
		return fmt.Errorf("mm: segfault at %#x", va)
	}
	if write && !v.Perm.CanWrite() {
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		//lint:ignore hotalloc error path: a protection fault ends the workload
		return fmt.Errorf("mm: write to read-only mapping at %#x", va)
	}

	if m.tryHuge(t, v, va.HugeDown(), v.End, true) {
		m.Stats.HugeFaults++
		m.Stats.PagesMapped += mem.HugeSize / mem.PageSize
		if write {
			m.trackDirty(t, v, va)
			m.makeWritable(t, va)
		}
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		return nil
	}

	fileBlock := (uint64(va.PageDown()-v.Start) + v.FileOff) / mem.PageSize
	phys, ok := m.fs.BlockOf(t, v.Inode, fileBlock)
	if !ok {
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		//lint:ignore hotalloc error path: a fault beyond EOF ends the workload
		return fmt.Errorf("mm: fault beyond EOF at %#x (block %d)", va, fileBlock)
	}
	t.Charge(cost.MinorFaultService)
	m.Stats.MinorFaults++

	perm := m.initialPerm(v)
	if write {
		// Single combined fault: dirty-track now and install writable.
		m.trackDirty(t, v, va)
		perm = v.Perm
	}
	leafParent := m.installPTE(t, va.PageDown(), phys, perm, write)
	_ = leafParent
	m.Stats.PagesMapped++
	m.Sem.RUnlock(t, cost.SemReleaseFast)
	return nil
}

// installPTE installs a 4 KiB translation under the split page-table lock.
func (m *MM) installPTE(t *sim.Thread, va mem.VirtAddr, phys uint64, perm mem.Perm, dirty bool) *pt.Node {
	e := pt.MakeEntry(mem.PFN(phys), perm, true, false)
	if dirty {
		e |= pt.BitDirty | pt.BitAccessed
	}
	m.AS.Map(t, va, e, pt.LevelPTE)
	leaf, _ := m.AS.LeafNode(va)
	if leaf != nil {
		leaf.Ptl.Lock(t, cost.SpinLockAcquire)
		leaf.Ptl.Unlock(t, cost.SpinLockRelease)
	}
	return leaf
}

// WPFault services a write to a write-protected present page: the
// dirty-tracking path (ext4's page_mkwrite + radix tagging), plus the
// MAP_SYNC metadata commit.
func (m *MM) WPFault(t *sim.Thread, core *cpu.Core, va mem.VirtAddr) error {
	began := t.Now()
	t.PushAttr("fault.wp")
	m.Spans.Begin(t, "fault.wp")
	err := m.wpFault(t, core, va)
	m.Spans.End(t)
	t.PopAttr()
	cycles := t.Now() - began
	m.FaultHist.Observe(cycles)
	m.Trace.Emit(obs.EvWPFault, coreID(core), began, cycles, "", uint64(va))
	return err
}

func (m *MM) wpFault(t *sim.Thread, core *cpu.Core, va mem.VirtAddr) error {
	t.Charge(cost.FaultEntry)
	m.Sem.RLock(t, cost.SemAcquireFast)
	v := m.FindVMA(t, va)
	if v == nil {
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		//lint:ignore hotalloc error path: a segfault ends the workload
		return fmt.Errorf("mm: segfault at %#x", va)
	}
	if !v.Perm.CanWrite() {
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		//lint:ignore hotalloc error path: a protection fault ends the workload
		return fmt.Errorf("mm: write to read-only mapping at %#x", va)
	}
	if v.DaxVM && m.DaxWPFault != nil {
		err := m.DaxWPFault(t, core, v, va)
		core.TLB.InvalidatePage(va)
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		return err
	}
	// Spurious? Another thread may have upgraded the PTE already.
	if _, _, writable, ok := m.AS.Lookup(va); ok && writable {
		m.Stats.SpuriousWP++
		core.TLB.InvalidatePage(va)
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		return nil
	}
	t.Charge(cost.WriteProtectFaultService)
	m.Stats.WPFaults++
	m.trackDirty(t, v, va)
	m.makeWritable(t, va)
	core.TLB.InvalidatePage(va)
	m.Sem.RUnlock(t, cost.SemReleaseFast)
	return nil
}

// trackDirty records the dirtied page in the inode's radix tree and runs
// the MAP_SYNC metadata commit if needed.
func (m *MM) trackDirty(t *sim.Thread, v *VMA, va mem.VirtAddr) {
	if v.NoSync {
		return
	}
	if v.Flags&MapSync != 0 {
		if m.fs.SyncMetaIfDirty(t, v.Inode) {
			m.Stats.MetaSyncs++
		}
	}
	pageIdx := (uint64(va.PageDown()-v.Start) + v.FileOff) / mem.PageSize
	t.Charge(cost.RadixTreeTag)
	v.Inode.DirtyPages.Set(pageIdx, struct{}{})
	v.Inode.DirtyPages.SetTag(pageIdx, radix.TagDirty)
}

// makeWritable upgrades the leaf entry at va to writable+dirty.
func (m *MM) makeWritable(t *sim.Thread, va mem.VirtAddr) {
	leaf, idx := m.AS.LeafNode(va)
	if leaf == nil {
		return
	}
	leaf.Ptl.Lock(t, cost.SpinLockAcquire)
	e := leaf.Entries[idx]
	leaf.SetEntry(t, idx, e|pt.BitWrite|pt.BitDirty|pt.BitAccessed)
	leaf.Ptl.Unlock(t, cost.SpinLockRelease)
	t.Charge(cost.PTESetPerPage)
}

// Munmap removes [va, va+length). Partially covered VMAs are split, like
// POSIX requires (the fine-grained generality DaxVM's ephemeral mappings
// drop).
func (m *MM) Munmap(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, length uint64) error {
	began := t.Now()
	t.Charge(cost.MunmapFixed)
	end := va + mem.VirtAddr(mem.AlignedUp(length, mem.PageSize))
	m.Sem.Lock(t, cost.SemAcquireFast)
	err := m.munmapLocked(t, core, va, end)
	m.Sem.Unlock(t, cost.SemReleaseFast)
	m.Trace.Emit(obs.EvMunmap, coreID(core), began, t.Now()-began, "", uint64(end-va)/mem.PageSize)
	return err
}

// MunmapNoInval removes [va, end) clearing PTEs but performing no TLB
// invalidation — callers owning coherence (LATR) handle it themselves.
// Caller holds Sem for writing.
func (m *MM) MunmapNoInval(t *sim.Thread, core *cpu.Core, va, end mem.VirtAddr) error {
	return m.munmapRange(t, core, va, end, false)
}

func (m *MM) munmapLocked(t *sim.Thread, core *cpu.Core, va, end mem.VirtAddr) error {
	return m.munmapRange(t, core, va, end, true)
}

func (m *MM) munmapRange(t *sim.Thread, core *cpu.Core, va, end mem.VirtAddr, inval bool) error {
	// Collect overlapping VMAs into the scratch list; the caller holds
	// Sem for writing, so no other munmap shares it.
	overlapping := m.overlapping[:0]
	m.vmas.Ascend(0, func(k uint64, v *VMA) bool {
		if v.Start >= end {
			return false
		}
		if v.End > va {
			overlapping = append(overlapping, v)
		}
		return true
	})
	m.overlapping = overlapping
	if len(overlapping) == 0 {
		return nil
	}
	for _, v := range overlapping {
		m.EraseVMA(t, v)
		delete(v.Inode.Mappers, v)
		// Splits for partial coverage.
		if v.Start < va {
			left := *v
			left.End = va
			m.InsertVMA(t, &left)
			v.Inode.Mappers[&left] = m.forceUnmapFn
		}
		if v.End > end {
			right := *v
			right.Start = end
			right.FileOff = v.FileOff + uint64(end-v.Start)
			m.InsertVMA(t, &right)
			v.Inode.Mappers[&right] = m.forceUnmapFn
		}
	}
	lo := overlapping[0].Start
	if lo < va {
		lo = va
	}
	hi := overlapping[len(overlapping)-1].End
	if hi > end {
		hi = end
	}
	cleared := m.AS.ClearRange(t, lo, hi)
	t.Charge(cost.PTEClearPerPage * cleared)
	m.Stats.PagesCleared += cleared
	m.Stats.Munmaps++
	if inval {
		m.invalidate(t, core, lo, hi, cleared)
	}
	// The unmapped VMAs are gone from the tree and the inode's mappers,
	// and Sem (held for writing) kept every fault off them.
	for i, v := range overlapping {
		if v.recycle {
			*v = VMA{}
			m.freeVMAs = append(m.freeVMAs, v)
		}
		overlapping[i] = nil
	}
	return nil
}

// newVMA returns a VMA for Mmap to fill, recycling an unmapped one when
// there is one.
func (m *MM) newVMA() *VMA {
	if k := len(m.freeVMAs); k > 0 {
		v := m.freeVMAs[k-1]
		m.freeVMAs[k-1] = nil
		m.freeVMAs = m.freeVMAs[:k-1]
		return v
	}
	return &VMA{}
}

// invalidate applies Linux's batched-invalidation policy: few pages ->
// ranged shootdown, many -> one full flush on all cores of the process.
func (m *MM) invalidate(t *sim.Thread, core *cpu.Core, start, end mem.VirtAddr, pages uint64) {
	if pages == 0 {
		return
	}
	targets := m.Cores()
	m.Stats.Shootdowns++
	if pages <= cost.FullFlushThresholdPages {
		m.cpus.Shootdown(t, core, targets, cpu.ShootRange, nil, start, end)
		return
	}
	m.Stats.FullFlushes++
	m.cpus.Shootdown(t, core, targets, cpu.ShootFull, nil, 0, 0)
}

// forceUnmapLocked is invoked by the FS when blocks are reclaimed under a
// mapping (truncate): translations must die immediately. The caller
// context already serializes with the FS; take Sem for writing.
func (m *MM) forceUnmapLocked(t *sim.Thread, v *VMA) {
	m.Sem.Lock(t, cost.SemAcquireFast)
	if _, ok := m.vmas.Get(uint64(v.Start)); ok {
		m.EraseVMA(t, v)
		delete(v.Inode.Mappers, v)
		cleared := m.AS.ClearRange(t, v.Start, v.End)
		m.Stats.PagesCleared += cleared
		core := m.anyCore()
		if core != nil {
			m.invalidate(t, core, v.Start, v.End, cleared)
		}
	}
	m.Sem.Unlock(t, cost.SemReleaseFast)
}

func (m *MM) anyCore() *cpu.Core {
	for _, c := range m.Cores() {
		return c
	}
	return nil
}

// Mprotect changes protection of [va, va+length). Implemented for whole
// or partial ranges (splitting), as POSIX demands of the baseline.
func (m *MM) Mprotect(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, length uint64, perm mem.Perm) error {
	end := va + mem.VirtAddr(mem.AlignedUp(length, mem.PageSize))
	m.Sem.Lock(t, cost.SemAcquireFast)
	defer m.Sem.Unlock(t, cost.SemReleaseFast)
	v := m.FindVMA(t, va)
	if v == nil || v.End < end {
		return fmt.Errorf("mm: mprotect range not mapped")
	}
	// Split off the affected range.
	if v.Start < va || v.End > end {
		m.EraseVMA(t, v)
		delete(v.Inode.Mappers, v)
		mkseg := func(s, e mem.VirtAddr, off uint64, p mem.Perm) {
			seg := *v
			seg.Start, seg.End, seg.FileOff, seg.Perm = s, e, off, p
			m.InsertVMA(t, &seg)
			v.Inode.Mappers[&seg] = m.forceUnmapFn
		}
		if v.Start < va {
			mkseg(v.Start, va, v.FileOff, v.Perm)
		}
		mkseg(va, end, v.FileOff+uint64(va-v.Start), perm)
		if v.End > end {
			mkseg(end, v.End, v.FileOff+uint64(end-v.Start), v.Perm)
		}
	} else {
		v.Perm = perm
	}
	// Downgrade present PTEs and invalidate.
	pages := uint64(end-va) / mem.PageSize
	for p := va; p < end; p += mem.PageSize {
		leaf, idx := m.AS.LeafNode(p)
		if leaf == nil {
			continue
		}
		e := leaf.Entries[idx]
		if !e.Present() {
			continue
		}
		ne := e &^ pt.BitWrite
		if perm.CanWrite() {
			// Stay write-protected if dirty tracking applies; upgraded
			// lazily by WP faults.
		}
		leaf.SetEntry(t, idx, ne)
		t.Charge(cost.PTESetPerPage)
	}
	m.invalidate(t, core, va, end, pages)
	return nil
}

// Msync flushes dirty pages of the mapping containing va back to media:
// walk the radix tags, clwb the data, re-write-protect, commit metadata.
func (m *MM) Msync(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, length uint64) error {
	began := t.Now()
	t.Charge(cost.FsyncFixed)
	m.Sem.RLock(t, cost.SemAcquireFast)
	v := m.FindVMA(t, va)
	if v == nil {
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		return fmt.Errorf("mm: msync of unmapped range")
	}
	if v.NoSync {
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		return nil // DaxVM nosync mode: no-op
	}
	in := v.Inode
	firstPage := (uint64(va-v.Start) + v.FileOff) / mem.PageSize
	lastPage := firstPage + mem.PagesIn(length)
	dev := m.fs.Device()
	idx := firstPage
	flushed := uint64(0)
	for {
		pg, ok := in.DirtyPages.NextTagged(idx, radix.TagDirty)
		if !ok || pg >= lastPage {
			break
		}
		phys, ok2 := m.fs.BlockOf(t, in, pg)
		if ok2 {
			dev.Flush(t, mem.PhysAddr(phys*mem.PageSize), mem.PageSize)
		}
		in.DirtyPages.ClearTag(pg, radix.TagDirty)
		t.Charge(cost.RadixTreeTag)
		// Re-write-protect the page for all mappings of this process.
		pva := v.Start + mem.VirtAddr((pg-v.FileOff/mem.PageSize)*mem.PageSize)
		if leaf, i := m.AS.LeafNode(pva); leaf != nil {
			e := leaf.Entries[i]
			if e.Present() {
				leaf.SetEntry(t, i, e&^(pt.BitWrite|pt.BitDirty))
				t.Charge(cost.PTESetPerPage)
			}
		}
		flushed++
		idx = pg + 1
	}
	if flushed > 0 {
		dev.Fence(t)
		m.invalidate(t, core, va, va+mem.VirtAddr(length), flushed)
	}
	m.Stats.MsyncPages += flushed
	m.Sem.RUnlock(t, cost.SemReleaseFast)
	m.fs.Fsync(t, in)
	m.Trace.Emit(obs.EvMsync, coreID(core), began, t.Now()-began, "", flushed)
	return nil
}

// Access simulates user code touching [va, va+n): per-page translation
// with demand/WP faults, charging dataPerPage cycles pro-rated by the
// bytes actually touched within each page. write selects store semantics.
func (m *MM) Access(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, n uint64, write bool, dataPerPage uint64) error {
	end := va + mem.VirtAddr(n)
	multi := m.multiNode()
	for p := va.PageDown(); p < end; p += mem.PageSize {
		e, err := m.touchPage(t, core, p, write)
		if err != nil {
			return err
		}
		lo, hi := p, p+mem.PageSize
		if va > lo {
			lo = va
		}
		if end < hi {
			hi = end
		}
		t.ChargeAs("data", dataPerPage*uint64(hi-lo)/mem.PageSize)
		if multi && e.OnPMem() {
			// Data touched on another socket's DIMMs pays the FAST '20
			// remote-Optane deficit on top of the local rate.
			if node := m.fs.Device().NodeOfPFN(e.PFN()); node != core.Node {
				rate := uint64(cost.RemotePMemReadExtraPerPage)
				if write {
					rate = cost.RemotePMemWriteExtraPerPage
				}
				t.ChargeAs("data_remote", rate*uint64(hi-lo)/mem.PageSize)
			}
		}
	}
	return nil
}

// touchPage resolves one page, taking faults until the access succeeds,
// and returns the final leaf entry.
func (m *MM) touchPage(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, write bool) (pt.Entry, error) {
	for tries := 0; tries < 4; tries++ {
		e, res := core.Translate(t, m.AS, va, write)
		switch res {
		case cpu.TransOK:
			return e, nil
		case cpu.TransNotPresent:
			if err := m.PageFault(t, core, va, write); err != nil {
				return 0, err
			}
		case cpu.TransNoWrite:
			if err := m.WPFault(t, core, va); err != nil {
				return 0, err
			}
		}
	}
	return 0, fmt.Errorf("mm: access to %#x did not converge", va)
}

// FindVMAForTest looks up a VMA without charging (test helper).
func (m *MM) FindVMAForTest(va mem.VirtAddr) *VMA {
	_, v, ok := m.vmas.Floor(uint64(va))
	if !ok || va >= v.End {
		return nil
	}
	return v
}
