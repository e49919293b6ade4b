// Package pmem simulates byte-addressable persistent memory (Intel
// Optane DCPMM in AppDirect mode, as used by the DaxVM paper).
//
// The device provides real storage (host memory) addressed by simulated
// physical addresses, plus the persistence semantics that PMem software
// depends on: regular (cached) stores are not durable until flushed with
// clwb+fence, while non-temporal stores become durable at the next fence.
//
// Host backing is demand-paged, so host memory scales with the bytes a run
// touches rather than the configured capacity. The device keeps a
// two-level directory of 4 KiB host pages: a top level with one pointer
// per 512 frames (2 MiB of device), and 512-slot leaves allocated on the
// first write into their range. An absent leaf or an empty slot reads as
// zeros. The first write to a page materializes it, preferring a page
// from the device's spare list (cleared unless the write covers the
// whole page). Zero clears partially covered pages and moves wholly
// covered ones to the spare list; Discard does the same without charges
// or statistics, and the file systems call it when freed blocks go back
// to their allocator. None of this is visible in virtual time: every
// charge, statistic and persistence rule is the same as for a flat byte
// array.
//
// The physical address space is striped across per-NUMA-node banks (one
// DIMM set per socket). Each bank has its own bandwidth token bucket, so
// heavy background writers (DaxVM's pre-zeroing daemon) interfere with
// foreground traffic on the same node the way they do on real Optane,
// while traffic to different sockets proceeds independently. Accesses
// that cross the socket interconnect pay the FAST '20 remote-Optane
// penalties on top of the local rates. With a single-node topology (the
// default) the device collapses to the original flat model, charge for
// charge.
package pmem

import (
	"fmt"
	"sync/atomic"

	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// Device is one simulated PMem module set, possibly spanning several
// NUMA nodes.
type Device struct {
	size  uint64
	dir   []*dirLeaf // host backing by pfn/leafPages, then pfn%leafPages; nil reads as zeros
	spare []*page    // pages released by Zero/Discard, stale until reused

	// Persistence tracking (enabled for crash tests): the set of dirty
	// cache lines written with cached stores and not yet flushed, and the
	// lines flushed but not yet fenced. Tracked device-wide; durability
	// does not depend on which socket holds the line.
	trackPersistence bool
	dirtyLines       map[uint64]struct{} // line index -> written, unflushed
	flushedLines     map[uint64]struct{} // clwb issued, fence pending

	tp       *topo.Topology
	bankSize uint64
	banks    []bank
	attrs    []string // "pmem.node0", ... attribution frames (multi-node only)

	Stats Stats
}

// page is the host backing of one simulated page frame.
type page = [mem.PageSize]byte

// leafPages is how many frames one directory leaf covers (2 MiB of
// device in 4 KiB of pointers).
const leafPages = 512

// dirLeaf is the second directory level: the pages of leafPages
// consecutive frames.
type dirLeaf [leafPages]*page

// framesAllocated counts host pages allocated by every device in the
// process (see FramesAllocated).
var framesAllocated atomic.Uint64

// FramesAllocated reports how many 4 KiB host pages devices have
// allocated in this process so far. A device reuses its spare pages
// before allocating, so over one run the count grows by the sum of each
// device's peak resident pages. Host telemetry for memory-bound tests:
// it is not simulated state and is not published to the metrics
// registry.
func FramesAllocated() uint64 { return framesAllocated.Load() }

// bank is the per-node slice of the device: its own channel occupancy
// and traffic counters. The data itself lives in the shared page
// directory.
type bank struct {
	bw    tokenBucket
	stats Stats
}

// Stats aggregates device traffic.
type Stats struct {
	BytesRead     uint64
	BytesWritten  uint64
	BytesZeroed   uint64
	NTStores      uint64
	CachedStores  uint64
	Clwbs         uint64
	Fences        uint64
	ThrottleStall uint64 // cycles foreground ops stalled on the bucket
	BusyCycles    uint64 // cycles the bank's channels were occupied by transfers
}

// Config controls device construction.
type Config struct {
	// Size is the device capacity in bytes.
	Size uint64
	// TrackPersistence enables per-line durability tracking for crash
	// simulation tests (costly; off for benchmarks).
	TrackPersistence bool
	// Topo places the device's DIMMs: capacity is split evenly across
	// the topology's nodes. nil means a flat single-node device.
	Topo *topo.Topology
}

// New creates a device. Only the directory's top level (one pointer per
// 2 MiB of device, 4 KiB per GiB) is allocated up front; directory leaves
// and backing pages are allocated on first write, and pages are recycled
// through the spare list (see the package doc), so a multi-GiB device
// costs host memory in proportion to what is written.
func New(cfg Config) *Device {
	if cfg.Size == 0 || !mem.IsAligned(cfg.Size, mem.PageSize) {
		panic(fmt.Sprintf("pmem: bad device size %d", cfg.Size))
	}
	nodes := 1
	if cfg.Topo.Multi() {
		nodes = cfg.Topo.Nodes()
	}
	d := &Device{
		size:             cfg.Size,
		dir:              make([]*dirLeaf, (cfg.Size/mem.PageSize+leafPages-1)/leafPages),
		trackPersistence: cfg.TrackPersistence,
		tp:               cfg.Topo,
		bankSize:         mem.AlignedUp(cfg.Size/uint64(nodes), mem.PageSize),
		banks:            make([]bank, nodes),
	}
	if nodes > 1 {
		d.attrs = make([]string, nodes)
		for i := range d.attrs {
			d.attrs[i] = fmt.Sprintf("pmem.node%d", i)
		}
	}
	if cfg.TrackPersistence {
		d.dirtyLines = make(map[uint64]struct{})
		d.flushedLines = make(map[uint64]struct{})
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Pages returns the device capacity in base pages.
func (d *Device) Pages() uint64 { return d.size / mem.PageSize }

// NodeCount returns how many NUMA-node banks the device spans.
func (d *Device) NodeCount() int { return len(d.banks) }

// NodePages returns the capacity of one node's bank in base pages.
func (d *Device) NodePages() uint64 { return d.bankSize / mem.PageSize }

// NodeOf returns the NUMA node whose DIMMs hold addr.
func (d *Device) NodeOf(addr mem.PhysAddr) mem.NodeID {
	n := uint64(addr) / d.bankSize
	if n >= uint64(len(d.banks)) {
		n = uint64(len(d.banks)) - 1
	}
	return mem.NodeID(n)
}

// NodeOfPFN is NodeOf for a page frame number.
func (d *Device) NodeOfPFN(pfn mem.PFN) mem.NodeID { return d.NodeOf(pfn.Addr()) }

// NodeStats returns the traffic counters of one node's bank.
func (d *Device) NodeStats(node int) *Stats { return &d.banks[node].stats }

func (d *Device) multi() bool { return len(d.banks) > 1 }

// Bytes returns the raw backing slice for [addr, addr+n), which must lie
// within one page; a range crossing a page boundary panics (use Peek to
// copy longer ranges out). Writes through the slice land on the device,
// so the page is materialized if absent. The caller is responsible for
// charging access costs; use the typed accessors where possible.
func (d *Device) Bytes(addr mem.PhysAddr, n uint64) []byte {
	d.check(addr, n)
	off := uint64(addr) % mem.PageSize
	if off+n > mem.PageSize {
		panic(fmt.Sprintf("pmem: Bytes range [%#x,+%d) crosses a page boundary", addr, n))
	}
	p := d.pageFor(uint64(addr)/mem.PageSize, false)
	return p[off : off+n : off+n]
}

// Peek copies device content at addr into buf without charging cycles or
// counting traffic: host-side inspection (verifying workload results),
// not a simulated access.
func (d *Device) Peek(addr mem.PhysAddr, buf []byte) {
	d.check(addr, uint64(len(buf)))
	d.load(addr, buf)
}

// Discard releases [addr, addr+n) the way Zero does, without charging
// cycles or counting traffic: afterwards the range reads as zeros. The
// file systems call it when freed blocks return to their allocator, so
// host memory tracks live data. Persistence tracking is untouched.
func (d *Device) Discard(addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	d.release(addr, n)
}

// lookup returns the backing page of frame pfn, or nil when absent.
func (d *Device) lookup(pfn uint64) *page {
	if l := d.dir[pfn/leafPages]; l != nil {
		return l[pfn%leafPages]
	}
	return nil
}

// pageFor returns the backing page of frame pfn, materializing it if
// absent: a spare page is reused first and cleared unless whole reports
// that the caller overwrites the entire page.
func (d *Device) pageFor(pfn uint64, whole bool) *page {
	l := d.dir[pfn/leafPages]
	if l == nil {
		//lint:ignore hotalloc first touch of a 2 MiB device range: leaves are never freed, so each is allocated once per device
		l = new(dirLeaf)
		d.dir[pfn/leafPages] = l
	}
	if p := l[pfn%leafPages]; p != nil {
		return p
	}
	var p *page
	if n := len(d.spare); n > 0 {
		p = d.spare[n-1]
		d.spare[n-1] = nil
		d.spare = d.spare[:n-1]
		if !whole {
			clear(p[:])
		}
	} else {
		//lint:ignore hotalloc first touch of a device page: bounded by the device's peak resident pages, later touches reuse spares
		p = new(page)
		framesAllocated.Add(1)
	}
	l[pfn%leafPages] = p
	return p
}

// store copies buf onto the device at addr, materializing pages.
func (d *Device) store(addr mem.PhysAddr, buf []byte) {
	a := uint64(addr)
	for len(buf) > 0 {
		off := a % mem.PageSize
		n := min(mem.PageSize-off, uint64(len(buf)))
		p := d.pageFor(a/mem.PageSize, n == mem.PageSize)
		copy(p[off:], buf[:n])
		buf = buf[n:]
		a += n
	}
}

// load copies device content at addr into buf; absent pages read as
// zeros.
func (d *Device) load(addr mem.PhysAddr, buf []byte) {
	a := uint64(addr)
	for len(buf) > 0 {
		off := a % mem.PageSize
		n := min(mem.PageSize-off, uint64(len(buf)))
		if p := d.lookup(a / mem.PageSize); p != nil {
			copy(buf[:n], p[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		a += n
	}
}

// release makes [addr, addr+n) read as zeros: wholly covered pages move
// to the spare list, partially covered present pages are cleared, and
// absent pages are left alone.
func (d *Device) release(addr mem.PhysAddr, n uint64) {
	a, end := uint64(addr), uint64(addr)+n
	for a < end {
		off := a % mem.PageSize
		m := min(mem.PageSize-off, end-a)
		pfn := a / mem.PageSize
		if p := d.lookup(pfn); p != nil {
			if m == mem.PageSize {
				d.dir[pfn/leafPages][pfn%leafPages] = nil
				d.spare = append(d.spare, p)
			} else {
				clear(p[off : off+m])
			}
		}
		a += m
	}
}

func (d *Device) check(addr mem.PhysAddr, n uint64) {
	if uint64(addr)+n > d.size {
		//lint:ignore hotalloc fatal path: args are boxed only when panicking
		panic(fmt.Sprintf("pmem: access [%#x,+%d) beyond device size %#x", addr, n, d.size))
	}
}

// remoteExtra returns the added cycles for t's core reaching node's
// DIMMs across the socket interconnect (0 when the access is local or
// the machine is flat). Sub-page transfers pay one interconnect hop.
func (d *Device) remoteExtra(t *sim.Thread, node mem.NodeID, ratePerPage, n uint64) uint64 {
	if !d.tp.Remote(d.tp.NodeOfCore(t.Core), node) {
		return 0
	}
	extra := ratePerPage * n / mem.PageSize
	if extra == 0 {
		extra = cost.RemotePMemWalkExtra
	}
	return extra
}

// Read copies device content into buf, charging sequential-read cost and
// consuming the owning node's read bandwidth. Used for kernel copies
// (read(2) internals). A range spanning a bank boundary is attributed to
// the starting node (extents are node-pure under placement, so this only
// approximates pathological straddling ranges).
func (d *Device) Read(t *sim.Thread, addr mem.PhysAddr, buf []byte) {
	n := uint64(len(buf))
	d.check(addr, n)
	d.load(addr, buf)
	node := d.NodeOf(addr)
	d.Stats.BytesRead += n
	d.banks[node].stats.BytesRead += n
	c := cost.CopyFromPMemPerPage * n / mem.PageSize
	if c == 0 {
		c = cost.PMemSeqLoadLat
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
		if extra := d.remoteExtra(t, node, cost.RemotePMemReadExtraPerPage, n); extra > 0 {
			// "remote_read"/"remote_write" labels double as the span
			// layer's remote_numa wait kind.
			t.ChargeAs("remote_read", extra)
		}
	}
	t.ChargeAs("pmem_read", c)
	d.consumeRead(t, node, n)
}

// WriteNT writes buf with non-temporal stores: the data bypasses the CPU
// cache and is durable after the next Fence.
func (d *Device) WriteNT(t *sim.Thread, addr mem.PhysAddr, buf []byte) {
	n := uint64(len(buf))
	d.check(addr, n)
	d.store(addr, buf)
	d.writeNTCommon(t, addr, n)
}

// StreamNT charges an n-byte non-temporal store stream without
// materializing content (journal log writes and other synthetic payloads
// whose bytes the experiments never read back).
func (d *Device) StreamNT(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	d.writeNTCommon(t, addr, n)
}

func (d *Device) writeNTCommon(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	node := d.NodeOf(addr)
	d.Stats.BytesWritten += n
	d.Stats.NTStores++
	d.banks[node].stats.BytesWritten += n
	d.banks[node].stats.NTStores++
	if d.trackPersistence {
		// NT stores go to the WC buffer; durable at next fence. Model
		// them as flushed-awaiting-fence. Explicit loop: a forEachLine
		// closure would allocate on every hot-path store.
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			delete(d.dirtyLines, l)
			d.flushedLines[l] = struct{}{}
		}
	}
	c := cost.NTStorePMemPerPage * n / mem.PageSize
	if c == 0 {
		c = cost.NTStoreLineCost * (n + mem.CacheLineSize - 1) / mem.CacheLineSize
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
		if extra := d.remoteExtra(t, node, cost.RemotePMemWriteExtraPerPage, n); extra > 0 {
			t.ChargeAs("remote_write", extra)
		}
	}
	t.ChargeAs("ntstore", c)
	d.consumeWrite(t, node, n)
}

// WriteCached writes buf with regular stores: fast, but NOT durable until
// the lines are flushed (Flush) and fenced (Fence). Remote cached stores
// pay nothing extra here — the store buffer hides the interconnect; the
// cost lands at flush/fence time.
func (d *Device) WriteCached(t *sim.Thread, addr mem.PhysAddr, buf []byte) {
	n := uint64(len(buf))
	d.check(addr, n)
	d.store(addr, buf)
	node := d.NodeOf(addr)
	d.Stats.BytesWritten += n
	d.Stats.CachedStores++
	d.banks[node].stats.BytesWritten += n
	d.banks[node].stats.CachedStores++
	if d.trackPersistence {
		// Explicit loop: a forEachLine closure would allocate per store.
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			d.dirtyLines[l] = struct{}{}
		}
	}
	// Cached stores complete at cache speed; the PMem cost is paid at
	// flush time.
	c := cost.CacheHitLatency * ((n + mem.CacheLineSize - 1) / mem.CacheLineSize) / 4
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	t.ChargeAs("cached_store", c)
}

// Zero zeroes [addr, addr+n) with non-temporal stores (security zeroing of
// freshly allocated blocks, and DaxVM's pre-zero daemon).
func (d *Device) Zero(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	d.release(addr, n)
	node := d.NodeOf(addr)
	d.Stats.BytesZeroed += n
	d.Stats.BytesWritten += n
	d.banks[node].stats.BytesZeroed += n
	d.banks[node].stats.BytesWritten += n
	if d.trackPersistence {
		d.forEachLine(addr, n, func(l uint64) {
			delete(d.dirtyLines, l)
			d.flushedLines[l] = struct{}{}
		})
	}
	c := cost.ZeroPMemPerPage * n / mem.PageSize
	if c == 0 {
		c = cost.NTStoreLineCost
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
		if extra := d.remoteExtra(t, node, cost.RemotePMemWriteExtraPerPage, n); extra > 0 {
			t.ChargeAs("remote_write", extra)
		}
	}
	t.ChargeAs("zero", c)
	d.consumeWrite(t, node, n)
}

// Flush issues clwb for every cache line in [addr, addr+n): the write-back
// is durable after the next Fence. Charges store+clwb bandwidth.
func (d *Device) Flush(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	node := d.NodeOf(addr)
	lines := (n + mem.CacheLineSize - 1) / mem.CacheLineSize
	d.Stats.Clwbs += lines
	d.banks[node].stats.Clwbs += lines
	if d.trackPersistence {
		d.forEachLine(addr, n, func(l uint64) {
			if _, ok := d.dirtyLines[l]; ok {
				delete(d.dirtyLines, l)
				d.flushedLines[l] = struct{}{}
			}
		})
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	t.ChargeAs("clwb", cost.ClwbCost*lines)
	d.consumeWrite(t, node, lines*mem.CacheLineSize)
}

// Fence drains pending flushes/NT stores (sfence); after it returns,
// everything previously flushed is durable. The drain is core-local, so
// it carries no node attribution.
func (d *Device) Fence(t *sim.Thread) {
	d.Stats.Fences++
	if d.trackPersistence {
		for l := range d.flushedLines {
			delete(d.flushedLines, l)
			delete(d.dirtyLines, l)
		}
	}
	t.ChargeAs("fence", cost.FenceCost)
}

// lineSpan returns the first and last cache-line indices covering
// [addr, addr+n).
func lineSpan(addr mem.PhysAddr, n uint64) (first, last uint64) {
	return uint64(addr) / mem.CacheLineSize, (uint64(addr) + n - 1) / mem.CacheLineSize
}

func (d *Device) forEachLine(addr mem.PhysAddr, n uint64, fn func(line uint64)) {
	first, last := lineSpan(addr, n)
	for l := first; l <= last; l++ {
		fn(l)
	}
}

// Crash simulates a power failure: every line written with cached stores
// and not flushed+fenced is replaced with garbage (0xCC) so recovery code
// that depends on unflushed data fails loudly. Requires TrackPersistence.
func (d *Device) Crash() {
	if !d.trackPersistence {
		panic("pmem: Crash requires TrackPersistence")
	}
	for l := range d.dirtyLines {
		d.corruptLine(l)
	}
	// Lines flushed-but-not-fenced may or may not survive; the paper's
	// recovery protocols must not depend on them, so corrupt them too
	// (the adversarial choice).
	for l := range d.flushedLines {
		d.corruptLine(l)
	}
	d.dirtyLines = make(map[uint64]struct{})
	d.flushedLines = make(map[uint64]struct{})
}

// corruptLine fills one cache line with crash garbage (a line never
// crosses a page, and the device size is page-aligned).
func (d *Device) corruptLine(l uint64) {
	off := l * mem.CacheLineSize
	p := d.pageFor(off/mem.PageSize, false)
	line := p[off%mem.PageSize:][:mem.CacheLineSize]
	for i := range line {
		line[i] = 0xCC
	}
}

// DirtyLineCount reports unflushed cached-store lines (crash tests).
func (d *Device) DirtyLineCount() int { return len(d.dirtyLines) }

// BWRead accounts shared-channel occupancy for DAX loads that bypass the
// kernel (mapped access): the data still crosses the DIMM channel even
// though no kernel copy happens. Single-node convenience for BWReadOn.
func (d *Device) BWRead(t *sim.Thread, n uint64) { d.BWReadOn(t, 0, n) }

// BWWrite is the store-side analogue of BWRead.
func (d *Device) BWWrite(t *sim.Thread, n uint64) { d.BWWriteOn(t, 0, n) }

// BWReadOn accounts mapped-read channel occupancy against one node's bank.
func (d *Device) BWReadOn(t *sim.Thread, node mem.NodeID, n uint64) {
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	d.consumeRead(t, node, n)
}

// BWWriteOn accounts mapped-write channel occupancy against one node's bank.
func (d *Device) BWWriteOn(t *sim.Thread, node mem.NodeID, n uint64) {
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	d.consumeWrite(t, node, n)
}

// ResetTiming clears bandwidth-channel occupancy and statistics on every
// bank. Called between an experiment's setup phase (image aging, corpus
// creation) and its measurement phase so setup traffic does not bleed
// into results.
func (d *Device) ResetTiming() {
	for i := range d.banks {
		d.banks[i] = bank{}
	}
	d.Stats = Stats{}
}

func (d *Device) consumeRead(t *sim.Thread, node mem.NodeID, n uint64) {
	busy, stall := consume(t, &d.banks[node].bw.readBusyUntil, n, cost.PMemDeviceReadBytesPerCycle)
	d.Stats.BusyCycles += busy
	d.banks[node].stats.BusyCycles += busy
	if stall > 0 {
		d.Stats.ThrottleStall += stall
		d.banks[node].stats.ThrottleStall += stall
	}
}

func (d *Device) consumeWrite(t *sim.Thread, node mem.NodeID, n uint64) {
	busy, stall := consume(t, &d.banks[node].bw.writeBusyUntil, n, cost.PMemDeviceWriteBytesPerCycle)
	d.Stats.BusyCycles += busy
	d.banks[node].stats.BusyCycles += busy
	if stall > 0 {
		d.Stats.ThrottleStall += stall
		d.banks[node].stats.ThrottleStall += stall
	}
}

// BacklogOn reports, at virtual time now, how many cycles of already-booked
// transfer work remain queued on one node's read and write channels
// combined — the token bucket's saturation signal. Zero when both channels
// have drained. Pure read for gauge sampling: charges nothing and never
// touches bucket state.
func (d *Device) BacklogOn(node int, now uint64) uint64 {
	var backlog uint64
	if bu := d.banks[node].bw.readBusyUntil; bu > now {
		backlog += bu - now
	}
	if bu := d.banks[node].bw.writeBusyUntil; bu > now {
		backlog += bu - now
	}
	return backlog
}

// --- bandwidth token bucket -------------------------------------------------

// tokenBucket serializes one bank's bandwidth in virtual time. The
// issuing thread's own charge already covers its per-thread transfer
// time; the bucket additionally models the shared per-node channel: a
// transfer of n bytes occupies the channel for n/deviceRate cycles
// ending no earlier than previous transfers end. If the channel cannot
// complete the transfer by the thread's current clock, the thread stalls
// for the difference — which is exactly how background zeroing steals
// bandwidth from foreground appends on real Optane.
type tokenBucket struct {
	writeBusyUntil uint64
	readBusyUntil  uint64
}

// consume books an n-byte transfer on the channel, charges any stall to
// t, and returns the transfer's channel-occupancy cycles plus the stall
// cycles for the caller's statistics. The "bw_stall" label is
// load-bearing beyond profiling: the span layer (internal/obs/span)
// classifies it as the pmem_bw wait kind.
func consume(t *sim.Thread, busyUntil *uint64, n uint64, rate float64) (busy, stall uint64) {
	// Synchronization point: the shared channel state must be touched in
	// virtual-time order or threads that never block would serialize
	// each other spuriously.
	t.Yield()
	dur := uint64(float64(n) / rate)
	now := t.Now()
	start := now - dur
	if now < dur {
		start = 0
	}
	if *busyUntil > start {
		start = *busyUntil
	}
	finish := start + dur
	*busyUntil = finish
	if finish > now {
		stall = finish - now
		t.ChargeAs("bw_stall", stall)
	}
	return dur, stall
}
