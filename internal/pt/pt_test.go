package pt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

func newAS() *AddressSpace {
	return NewAddressSpace(
		func(_ *sim.Thread, level int) *Node { return NewNode(level, mem.Loc{Medium: mem.DRAM}) },
		func(_ *sim.Thread, _ *Node) {},
	)
}

func run(fn func(t *sim.Thread)) {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	e.Run()
}

func TestEntryBits(t *testing.T) {
	e := MakeEntry(0x1234, mem.PermRead|mem.PermWrite, true, false)
	if !e.Present() || !e.Writable() || !e.OnPMem() || e.Huge() {
		t.Fatalf("bits wrong: %#x", uint64(e))
	}
	if e.PFN() != 0x1234 {
		t.Fatalf("pfn = %#x", e.PFN())
	}
	ro := MakeEntry(7, mem.PermRead, false, true)
	if ro.Writable() || !ro.Huge() || ro.OnPMem() {
		t.Fatalf("bits wrong: %#x", uint64(ro))
	}
}

func TestMapLookup(t *testing.T) {
	as := newAS()
	run(func(th *sim.Thread) {
		va := mem.VirtAddr(0x7f00_0000_0000)
		as.Map(th, va, MakeEntry(42, mem.PermRead|mem.PermWrite, true, false), LevelPTE)
		e, lvl, w, ok := as.Lookup(va)
		if !ok || lvl != LevelPTE || !w || e.PFN() != 42 {
			t.Errorf("Lookup = %#x lvl=%d w=%v ok=%v", uint64(e), lvl, w, ok)
		}
		if _, _, _, ok := as.Lookup(va + mem.PageSize); ok {
			t.Error("adjacent page should be unmapped")
		}
	})
}

func TestHugeMapping(t *testing.T) {
	as := newAS()
	run(func(th *sim.Thread) {
		va := mem.VirtAddr(0x7f00_0020_0000) // 2 MiB aligned
		as.Map(th, va, MakeEntry(512, mem.PermRead, true, true), LevelPMD)
		e, lvl, _, ok := as.Lookup(va + 0x12345)
		if !ok || lvl != LevelPMD || !e.Huge() {
			t.Errorf("huge lookup = %#x lvl=%d ok=%v", uint64(e), lvl, ok)
		}
	})
}

func TestAttachDetachSharedFragment(t *testing.T) {
	// A shared PTE-level node attached into two address spaces with
	// different permissions must yield different effective writability.
	sub := NewNode(LevelPTE, mem.Loc{Medium: mem.PMem})
	sub.Shared = true
	run(func(th *sim.Thread) {
		for i := 0; i < 16; i++ {
			sub.SetEntry(th, i, MakeEntry(mem.PFN(100+i), mem.PermRead|mem.PermWrite, true, false))
		}
		va := mem.VirtAddr(0x7f00_0040_0000)

		asRW := newAS()
		asRO := newAS()
		asRW.Attach(th, va, LevelPMD, sub, mem.PermRead|mem.PermWrite)
		asRO.Attach(th, va, LevelPMD, sub, mem.PermRead)

		_, _, w1, ok1 := asRW.Lookup(va + 4096)
		_, _, w2, ok2 := asRO.Lookup(va + 4096)
		if !ok1 || !ok2 {
			t.Error("attached translations missing")
		}
		if !w1 {
			t.Error("RW attachment should be writable")
		}
		if w2 {
			t.Error("RO attachment must not be writable despite RW PTEs (min-permission rule)")
		}

		got := asRW.Detach(th, va, LevelPMD)
		if got != sub {
			t.Error("Detach returned wrong node")
		}
		if _, _, _, ok := asRW.Lookup(va + 4096); ok {
			t.Error("translation survived detach")
		}
		// The shared fragment must be intact for the other process.
		if _, _, _, ok := asRO.Lookup(va + 4096); !ok {
			t.Error("shared fragment damaged by detach")
		}
		if sub.Entries[3].PFN() != 103 {
			t.Error("shared PTEs mutated")
		}
	})
}

func TestAttachedPerm(t *testing.T) {
	sub := NewNode(LevelPTE, mem.Loc{Medium: mem.DRAM})
	sub.Shared = true
	run(func(th *sim.Thread) {
		sub.SetEntry(th, 0, MakeEntry(1, mem.PermRead|mem.PermWrite, true, false))
		as := newAS()
		va := mem.VirtAddr(0x6000_0000_0000)
		as.Attach(th, va, LevelPMD, sub, mem.PermRead)
		if _, _, w, _ := as.Lookup(va); w {
			t.Error("should start read-only")
		}
		if !as.AttachedPerm(th, va, LevelPMD, mem.PermRead|mem.PermWrite) {
			t.Error("AttachedPerm failed")
		}
		if _, _, w, _ := as.Lookup(va); !w {
			t.Error("permission upgrade did not take effect")
		}
	})
}

func TestClearRange(t *testing.T) {
	as := newAS()
	run(func(th *sim.Thread) {
		base := mem.VirtAddr(0x7f00_0000_0000)
		for i := uint64(0); i < 100; i++ {
			as.Map(th, base+mem.VirtAddr(i*mem.PageSize), MakeEntry(mem.PFN(i), mem.PermRead, true, false), LevelPTE)
		}
		cleared := as.ClearRange(th, base+10*mem.PageSize, base+20*mem.PageSize)
		if cleared != 10 {
			t.Errorf("cleared = %d, want 10", cleared)
		}
		if _, _, _, ok := as.Lookup(base + 9*mem.PageSize); !ok {
			t.Error("page 9 should survive")
		}
		if _, _, _, ok := as.Lookup(base + 15*mem.PageSize); ok {
			t.Error("page 15 should be cleared")
		}
		if _, _, _, ok := as.Lookup(base + 20*mem.PageSize); !ok {
			t.Error("page 20 should survive")
		}
	})
}

func TestClearRangeDetachesFragments(t *testing.T) {
	sub := NewNode(LevelPTE, mem.Loc{Medium: mem.PMem})
	sub.Shared = true
	as := newAS()
	run(func(th *sim.Thread) {
		sub.SetEntry(th, 0, MakeEntry(9, mem.PermRead, true, false))
		va := mem.VirtAddr(0x7f00_0060_0000)
		as.Attach(th, va, LevelPMD, sub, mem.PermRead)
		cleared := as.ClearRange(th, va, va+mem.HugeSize)
		if cleared != mem.HugeSize/mem.PageSize {
			t.Errorf("cleared = %d", cleared)
		}
		if sub.Entries[0] == 0 {
			t.Error("shared fragment zeroed by ClearRange")
		}
	})
}

func TestPMemBackingMirror(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20})
	n := NewNode(LevelPTE, mem.Loc{Medium: mem.PMem})
	n.Backing = dev
	n.BackAddr = 0x4000
	run(func(th *sim.Thread) {
		e := MakeEntry(77, mem.PermRead|mem.PermWrite, true, false)
		n.SetEntry(th, 5, e)
		n.FlushEntries(th, 5, 6)
		dev.Fence(th)
		raw := dev.Bytes(0x4000+5*8, 8)
		var got uint64
		for i := 7; i >= 0; i-- {
			got = got<<8 | uint64(raw[i])
		}
		if Entry(got) != e {
			t.Errorf("mirrored entry = %#x, want %#x", got, uint64(e))
		}
	})
}

// Property: Map then Lookup is the identity for arbitrary page-aligned
// addresses and PFNs, and ClearRange removes exactly the mapped range.
func TestQuickMapLookupInverse(t *testing.T) {
	f := func(pages []uint32, pfns []uint32) bool {
		if len(pages) == 0 {
			return true
		}
		if len(pfns) < len(pages) {
			return true
		}
		as := newAS()
		ok := true
		run(func(th *sim.Thread) {
			seen := map[mem.VirtAddr]mem.PFN{}
			for i, p := range pages {
				va := mem.VirtAddr(uint64(p) * mem.PageSize)
				pfn := mem.PFN(pfns[i] & 0xFFFFF)
				as.Map(th, va, MakeEntry(pfn, mem.PermRead, true, false), LevelPTE)
				seen[va] = pfn
			}
			for va, pfn := range seen {
				e, _, _, found := as.Lookup(va)
				if !found || e.PFN() != pfn {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClearRangePrunesNodes(t *testing.T) {
	freed := 0
	as := NewAddressSpace(
		func(_ *sim.Thread, level int) *Node { return NewNode(level, mem.Loc{Medium: mem.DRAM}) },
		func(_ *sim.Thread, _ *Node) { freed++ },
	)
	run(func(th *sim.Thread) {
		rng := rand.New(rand.NewSource(1))
		base := mem.VirtAddr(0x7f00_0000_0000)
		for i := 0; i < 1000; i++ {
			va := base + mem.VirtAddr(uint64(rng.Intn(1<<20))*mem.PageSize)
			as.Map(th, va, MakeEntry(1, mem.PermRead, true, false), LevelPTE)
		}
		as.ClearRange(th, base, base+mem.VirtAddr(uint64(1<<20)*mem.PageSize))
	})
	if freed == 0 {
		t.Fatal("no interior nodes pruned")
	}
}

// TestResetGivesNewSerial: a recycled node is empty and is a new node to
// every cache keyed by Serial.
func TestResetGivesNewSerial(t *testing.T) {
	a, b := NewNode(LevelPTE, mem.Loc{}), NewNode(LevelPTE, mem.Loc{})
	if a.Serial() == b.Serial() {
		t.Fatal("two nodes share a serial")
	}
	a.SetEntry(nil, 3, MakeEntry(7, mem.PermRead, false, false))
	old := a.Serial()
	a.Reset(LevelPMD, mem.Loc{Medium: mem.DRAM, Node: 1})
	if a.Serial() == old || a.Serial() == b.Serial() {
		t.Fatalf("reset node kept or reused a serial: %d (old %d, other %d)", a.Serial(), old, b.Serial())
	}
	if a.Live() != 0 || a.Entries[3] != 0 || a.Level != LevelPMD || a.Loc.Node != 1 || a.Frame != NoFrame {
		t.Fatalf("reset node not empty: live %d entry %#x level %d loc %+v frame %d", a.Live(), a.Entries[3], a.Level, a.Loc, a.Frame)
	}
}
