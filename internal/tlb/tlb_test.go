package tlb

import (
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/pt"
)

func TestLookupInsert(t *testing.T) {
	tb := New()
	va := mem.VirtAddr(0x1000)
	if _, ok := tb.Lookup(va); ok {
		t.Fatal("empty TLB hit")
	}
	tb.Insert(va, pt.MakeEntry(7, mem.PermRead, true, false), false, false)
	e, ok := tb.Lookup(va + 0x123) // same page, interior offset
	if !ok || e.PTE.PFN() != 7 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	if tb.Stats.Hits != 1 || tb.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", tb.Stats)
	}
}

func TestHugeEntryCoversRegion(t *testing.T) {
	tb := New()
	va := mem.VirtAddr(0x40000000) // 2 MiB aligned
	tb.Insert(va, pt.MakeEntry(512, mem.PermRead, true, true), false, true)
	if _, ok := tb.Lookup(va + 1<<20); !ok {
		t.Fatal("huge entry did not cover interior address")
	}
	if _, ok := tb.Lookup(va + mem.HugeSize); ok {
		t.Fatal("huge entry leaked past its region")
	}
}

func TestEvictionRespectsCapacity(t *testing.T) {
	tb := NewSized(8, 2)
	for i := 0; i < 32; i++ {
		tb.Insert(mem.VirtAddr(i)*mem.PageSize, pt.MakeEntry(mem.PFN(i), mem.PermRead, true, false), false, false)
	}
	if got := tb.Len(); got > 8 {
		t.Fatalf("TLB holds %d entries, capacity 8", got)
	}
	// Most recent entries survive FIFO eviction.
	if _, ok := tb.Lookup(mem.VirtAddr(31) * mem.PageSize); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestInvalidatePageBothSizes(t *testing.T) {
	tb := New()
	small := mem.VirtAddr(0x5000)
	huge := mem.VirtAddr(0x40000000)
	tb.Insert(small, pt.MakeEntry(1, mem.PermRead, true, false), false, false)
	tb.Insert(huge, pt.MakeEntry(512, mem.PermRead, true, true), false, true)
	tb.InvalidatePage(small)
	tb.InvalidatePage(huge + 4096) // interior address must hit the huge entry
	if _, ok := tb.Lookup(small); ok {
		t.Fatal("small entry survived invlpg")
	}
	if _, ok := tb.Lookup(huge); ok {
		t.Fatal("huge entry survived invlpg")
	}
}

func TestInvalidateRange(t *testing.T) {
	tb := New()
	for i := 0; i < 10; i++ {
		tb.Insert(mem.VirtAddr(i)*mem.PageSize, pt.MakeEntry(mem.PFN(i), mem.PermRead, true, false), false, false)
	}
	tb.InvalidateRange(2*mem.PageSize, 5*mem.PageSize)
	for i := 0; i < 10; i++ {
		_, ok := tb.Lookup(mem.VirtAddr(i) * mem.PageSize)
		inRange := i >= 2 && i < 5
		if inRange && ok {
			t.Fatalf("page %d survived range invalidation", i)
		}
		if !inRange && !ok {
			t.Fatalf("page %d wrongly invalidated", i)
		}
	}
}

func TestFlushAllIsO1AndComplete(t *testing.T) {
	tb := New()
	for i := 0; i < 100; i++ {
		tb.Insert(mem.VirtAddr(i)*mem.PageSize, pt.MakeEntry(mem.PFN(i), mem.PermRead, true, false), false, false)
	}
	tb.FlushAll()
	if tb.Len() != 0 {
		t.Fatalf("%d entries survived full flush", tb.Len())
	}
	if _, ok := tb.Lookup(0); ok {
		t.Fatal("stale entry returned after flush")
	}
	// Insert after flush works (generation handling).
	tb.Insert(0, pt.MakeEntry(1, mem.PermRead, true, false), false, false)
	if _, ok := tb.Lookup(0); !ok {
		t.Fatal("insert after flush lost")
	}
}

// TestInvalidatedEntriesReused pins steady-state reuse: once warm, a
// cycle of range invalidation and refills past capacity (so FIFO
// eviction runs too) allocates neither entries nor queue space.
func TestInvalidatedEntriesReused(t *testing.T) {
	tb := NewSized(16, 2)
	end := mem.VirtAddr(64) * mem.PageSize
	cycle := func() {
		tb.InvalidateRange(0, end)
		for va := mem.VirtAddr(0); va < end; va += mem.PageSize {
			tb.Insert(va, pt.MakeEntry(mem.PFN(va/mem.PageSize), mem.PermRead, true, false), false, false)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("invalidate/refill cycle allocated %v times, want 0", allocs)
	}
	if got := tb.Len(); got != 16 {
		t.Fatalf("TLB holds %d entries after refill, want 16", got)
	}
	// FIFO order is unchanged: the newest pages survive.
	if _, ok := tb.Lookup(end - mem.PageSize); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := tb.Lookup(end - 17*mem.PageSize); ok {
		t.Fatal("entry older than the capacity survived")
	}
}

// TestFlushAllReusesEntries: entries dropped when FlushAll resets the
// maps are reused by the refills that follow. Invalidations leave stale
// keys in the FIFO, so every few cycles FlushAll finds it past 4x the
// capacity and resets.
func TestFlushAllReusesEntries(t *testing.T) {
	tb := NewSized(16, 2)
	end := mem.VirtAddr(16) * mem.PageSize
	cycle := func() {
		tb.FlushAll()
		tb.InvalidateRange(0, end/2)
		for va := mem.VirtAddr(0); va < end; va += mem.PageSize {
			tb.Insert(va, pt.MakeEntry(mem.PFN(va/mem.PageSize), mem.PermRead, true, false), false, false)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("flush/refill cycle allocated %v times, want 0", allocs)
	}
	if got := tb.Len(); got != 16 {
		t.Fatalf("TLB holds %d entries after refill, want 16", got)
	}
}
