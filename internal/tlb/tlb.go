// Package tlb models a per-core translation lookaside buffer.
//
// Geometry loosely follows a Cascade Lake L2 STLB: a unified pool of 4 KiB
// entries plus a smaller pool for 2 MiB entries, with FIFO replacement.
// Full flushes use a generation counter so they are O(1), mirroring the
// cheapness of a CR3 write relative to per-page invlpg — the asymmetry
// DaxVM's batched unmapping exploits.
package tlb

import (
	"daxvm/internal/mem"
	"daxvm/internal/pt"
)

// Default capacities.
const (
	DefaultEntries4K = 1536
	DefaultEntries2M = 32
)

// Entry is a cached translation.
type Entry struct {
	VA       mem.VirtAddr // page-aligned (4 KiB or 2 MiB)
	PTE      pt.Entry
	Writable bool // effective permission honoring upper levels
	Huge     bool
	gen      uint64
}

// TLB is one core's TLB.
type TLB struct {
	small map[mem.VirtAddr]*Entry
	large map[mem.VirtAddr]*Entry
	// FIFO insertion order for eviction.
	orderSmall fifo
	orderLarge fifo
	capSmall   int
	capLarge   int
	gen        uint64
	// free holds entries dropped by invalidation for reuse, so
	// invalidate/insert churn does not allocate. Bounded by the
	// capacities: entries are allocated only while it is empty.
	free []*Entry

	Stats Stats
}

// Stats counts TLB behaviour.
type Stats struct {
	Hits       uint64
	Misses     uint64
	FullFlush  uint64
	PageInval  uint64
	Insertions uint64
}

// New creates a TLB with default geometry.
func New() *TLB { return NewSized(DefaultEntries4K, DefaultEntries2M) }

// NewSized creates a TLB with explicit entry counts.
func NewSized(small, large int) *TLB {
	return &TLB{
		small:    make(map[mem.VirtAddr]*Entry, small),
		large:    make(map[mem.VirtAddr]*Entry, large),
		capSmall: small,
		capLarge: large,
	}
}

// Lookup returns the cached translation for va.
func (t *TLB) Lookup(va mem.VirtAddr) (*Entry, bool) {
	if e, ok := t.small[va.PageDown()]; ok && e.gen == t.gen {
		t.Stats.Hits++
		return e, true
	}
	if e, ok := t.large[va.HugeDown()]; ok && e.gen == t.gen {
		t.Stats.Hits++
		return e, true
	}
	t.Stats.Misses++
	return nil, false
}

// Insert caches a translation. Steady state allocates nothing: an entry
// already mapped at the key (live or generation-stale) is overwritten in
// place, and otherwise the slot evicted to make room or an invalidated
// entry is reused.
func (t *TLB) Insert(va mem.VirtAddr, pte pt.Entry, writable, huge bool) {
	t.Stats.Insertions++
	if huge {
		key := va.HugeDown()
		if e, exists := t.large[key]; exists {
			*e = Entry{VA: key, PTE: pte, Writable: writable, Huge: true, gen: t.gen}
			return
		}
		e := t.evictIfFull(&t.orderLarge, t.large, t.capLarge)
		if e == nil {
			e = t.newEntry()
		}
		t.orderLarge.push(key)
		*e = Entry{VA: key, PTE: pte, Writable: writable, Huge: true, gen: t.gen}
		t.large[key] = e
		return
	}
	key := va.PageDown()
	if e, exists := t.small[key]; exists {
		*e = Entry{VA: key, PTE: pte, Writable: writable, gen: t.gen}
		return
	}
	e := t.evictIfFull(&t.orderSmall, t.small, t.capSmall)
	if e == nil {
		e = t.newEntry()
	}
	t.orderSmall.push(key)
	*e = Entry{VA: key, PTE: pte, Writable: writable, gen: t.gen}
	t.small[key] = e
}

// newEntry takes an invalidated entry off the free list, allocating only
// while the TLB warms up.
func (t *TLB) newEntry() *Entry {
	if n := len(t.free); n > 0 {
		e := t.free[n-1]
		t.free = t.free[:n-1]
		return e
	}
	//lint:ignore hotalloc warm-up only: full or invalidated TLBs reuse entries
	return &Entry{}
}

// drop removes key from m, keeping its entry for reuse.
func (t *TLB) drop(m map[mem.VirtAddr]*Entry, key mem.VirtAddr) {
	if e, ok := m[key]; ok {
		delete(m, key)
		//lint:ignore hotalloc free list: bounded by the TLB's capacity
		t.free = append(t.free, e)
	}
}

// evictIfFull frees map slots until one is available, returning the last
// evicted entry so the caller can reuse its storage.
func (t *TLB) evictIfFull(order *fifo, m map[mem.VirtAddr]*Entry, capacity int) *Entry {
	var reuse *Entry
	for len(m) >= capacity && order.len() > 0 {
		victim := order.pop()
		if e, ok := m[victim]; ok {
			delete(m, victim) // stale entries just free the slot
			reuse = e
		}
	}
	return reuse
}

// fifo is a queue of keys in insertion order. Popped slots at the front
// are reclaimed by compaction instead of sliding the slice through fresh
// allocations, so a queue of steady length stops allocating.
type fifo struct {
	keys []mem.VirtAddr
	head int // index of the oldest key
}

func (f *fifo) len() int { return len(f.keys) - f.head }

func (f *fifo) pop() mem.VirtAddr {
	k := f.keys[f.head]
	f.head++
	return k
}

func (f *fifo) push(k mem.VirtAddr) {
	// Compact once at least half the backing array is popped slots: a
	// compaction copies no more keys than it reclaims, so pushes stay
	// amortized O(1).
	if len(f.keys) == cap(f.keys) && f.head >= len(f.keys)/2 && f.head > 0 {
		n := copy(f.keys, f.keys[f.head:])
		f.keys = f.keys[:n]
		f.head = 0
	}
	//lint:ignore hotalloc FIFO growth: bounded by the FlushAll reset; steady length reuses the backing array
	f.keys = append(f.keys, k)
}

func (f *fifo) reset() {
	f.keys = f.keys[:0]
	f.head = 0
}

// InvalidatePage drops the translation covering va (invlpg semantics:
// both page sizes checked).
func (t *TLB) InvalidatePage(va mem.VirtAddr) {
	t.Stats.PageInval++
	t.drop(t.small, va.PageDown())
	t.drop(t.large, va.HugeDown())
}

// InvalidateRange drops all translations overlapping [start, end).
func (t *TLB) InvalidateRange(start, end mem.VirtAddr) {
	for va := start.PageDown(); va < end; va += mem.PageSize {
		t.drop(t.small, va)
	}
	for va := start.HugeDown(); va < end; va += mem.HugeSize {
		t.drop(t.large, va)
	}
}

// FlushAll drops every translation (CR3 write) in O(1).
func (t *TLB) FlushAll() {
	t.Stats.FullFlush++
	t.gen++
	// Maps are lazily cleaned by generation checks; reset the rings when
	// they grow stale to bound memory.
	if t.orderSmall.len() > 4*t.capSmall {
		t.release(t.small)
		t.orderSmall.reset()
	}
	if t.orderLarge.len() > 4*t.capLarge {
		t.release(t.large)
		t.orderLarge.reset()
	}
}

// release empties m, keeping its entries for reuse. Every reused entry
// is overwritten whole, so the free list's order is never observable.
func (t *TLB) release(m map[mem.VirtAddr]*Entry) {
	for _, e := range m {
		//lint:ignore hotalloc free list: bounded by the TLB's capacity
		t.free = append(t.free, e)
	}
	clear(m)
}

// Len reports live entries (generation-current).
func (t *TLB) Len() int {
	n := 0
	for _, e := range t.small {
		if e.gen == t.gen {
			n++
		}
	}
	for _, e := range t.large {
		if e.gen == t.gen {
			n++
		}
	}
	return n
}
