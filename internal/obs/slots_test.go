package obs

import (
	"reflect"
	"testing"
)

// Slot readings agree with Snapshot, and a re-registered name keeps its
// slot while its reader is replaced.
func TestRegistrySlots(t *testing.T) {
	r := NewRegistry()
	a, b := uint64(3), uint64(4)
	r.Counter("z.a", func() uint64 { return a })
	r.Counter("b.b", func() uint64 { return b })
	h := r.Histogram("lat")
	h.Observe(0)
	h.Observe(900)
	h.Observe(1 << 40)

	got := r.ReadCounters(nil)
	if !reflect.DeepEqual(got, []uint64{3, 4}) || r.CounterName(0) != "z.a" || r.CounterName(1) != "b.b" {
		t.Fatalf("counters in registration order: %v", got)
	}
	r.Counter("z.a", func() uint64 { return 99 })
	got = r.ReadCounters(got)
	if !reflect.DeepEqual(got, []uint64{99, 4}) || r.CounterSlot("z.a") != 0 || r.CounterSlot("none") != -1 {
		t.Fatalf("re-registered counter moved or kept its reader: %v", got)
	}
	if names := r.Names(); !reflect.DeepEqual(names, []string{"b.b", "z.a"}) {
		t.Fatalf("Names = %v, want sorted", names)
	}

	hs := r.ReadHists(nil)
	if len(hs) != 1 || r.HistName(0) != "lat" {
		t.Fatalf("hists = %d, name %q", len(hs), r.HistName(0))
	}
	if want := h.Snapshot(); !reflect.DeepEqual(hs[0].Snapshot(), want) {
		t.Fatalf("dense reading %+v != snapshot %+v", hs[0].Snapshot(), want)
	}
	var d HistCounts
	prev := hs[0]
	h.Observe(900)
	hs = r.ReadHists(hs)
	d.AddDelta(&hs[0], &prev)
	if want := r.Snapshot().Hists["lat"].Delta(prev.Snapshot()); !reflect.DeepEqual(d.Snapshot(), want) {
		t.Fatalf("dense delta %+v != snapshot delta %+v", d.Snapshot(), want)
	}

	var nilReg *Registry
	if n := len(nilReg.ReadCounters(got)); n != 0 {
		t.Fatalf("nil registry read %d counters", n)
	}
}

// Root totals are resolved at leaf creation and sum to the total.
func TestCycleAccountRoots(t *testing.T) {
	a := NewCycleAccount()
	a.Book(0, InternPath("app.syscall.write"), 10)
	a.Book(1, InternPath("fault"), 4)
	a.BookN(0, InternPath("app.access"), 6, 3)
	a.Book(0, InternPath("fault.minor"), 1)
	total, roots := a.ReadRoots(nil)
	if total != 21 || !reflect.DeepEqual(roots, []uint64{16, 5}) {
		t.Fatalf("total %d, roots %v; want 21, [16 5]", total, roots)
	}
	if a.RootName(0) != "app" || a.RootName(1) != "fault" {
		t.Fatalf("root names %q %q", a.RootName(0), a.RootName(1))
	}
	snap := a.Snapshot()
	if snap.TotalOf("app") != roots[0] || snap.TotalOf("fault") != roots[1] {
		t.Fatalf("roots disagree with the snapshot: %d %d", snap.TotalOf("app"), snap.TotalOf("fault"))
	}
	var nilAcc *CycleAccount
	if total, roots := nilAcc.ReadRoots(roots); total != 0 || len(roots) != 0 {
		t.Fatal("nil account read non-empty roots")
	}
}
