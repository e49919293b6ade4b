package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	var tr Tree[string]
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	tr.Insert(10, "a")
	tr.Insert(5, "b")
	tr.Insert(20, "c")
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	if v, ok := tr.Get(5); !ok || v != "b" {
		t.Fatalf("Get(5) = %q, %v", v, ok)
	}
	if replaced := tr.Insert(5, "b2"); !replaced {
		t.Fatal("Insert of existing key should report replacement")
	}
	if v, _ := tr.Get(5); v != "b2" {
		t.Fatal("replacement did not stick")
	}
	if !tr.Delete(10) || tr.Delete(10) {
		t.Fatal("Delete semantics wrong")
	}
	if tr.Len() != 2 {
		t.Fatalf("len after delete = %d", tr.Len())
	}
}

func TestFloorCeiling(t *testing.T) {
	var tr Tree[int]
	for _, k := range []uint64{10, 20, 30, 40} {
		tr.Insert(k, int(k))
	}
	cases := []struct {
		q         uint64
		floor     uint64
		floorOK   bool
		ceiling   uint64
		ceilingOK bool
	}{
		{5, 0, false, 10, true},
		{10, 10, true, 10, true},
		{25, 20, true, 30, true},
		{40, 40, true, 40, true},
		{45, 40, true, 0, false},
	}
	for _, c := range cases {
		if k, _, ok := tr.Floor(c.q); ok != c.floorOK || (ok && k != c.floor) {
			t.Errorf("Floor(%d) = %d,%v want %d,%v", c.q, k, ok, c.floor, c.floorOK)
		}
		if k, _, ok := tr.Ceiling(c.q); ok != c.ceilingOK || (ok && k != c.ceiling) {
			t.Errorf("Ceiling(%d) = %d,%v want %d,%v", c.q, k, ok, c.ceiling, c.ceilingOK)
		}
	}
}

func TestAscendOrder(t *testing.T) {
	var tr Tree[int]
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(500)
	for _, k := range keys {
		tr.Insert(uint64(k), k)
	}
	var got []uint64
	tr.All(func(k uint64, _ int) bool { got = append(got, k); return true })
	if len(got) != 500 {
		t.Fatalf("iterated %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Ascend not in order")
	}
	var partial []uint64
	tr.Ascend(250, func(k uint64, _ int) bool { partial = append(partial, k); return len(partial) < 10 })
	if partial[0] != 250 || len(partial) != 10 {
		t.Fatalf("Ascend(250) = %v", partial)
	}
}

func TestMinMax(t *testing.T) {
	var tr Tree[int]
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree")
	}
	for _, k := range []uint64{17, 3, 99, 42} {
		tr.Insert(k, 0)
	}
	if k, _, _ := tr.Min(); k != 3 {
		t.Fatalf("Min = %d", k)
	}
	if k, _, _ := tr.Max(); k != 99 {
		t.Fatalf("Max = %d", k)
	}
}

// TestRandomAgainstModel drives the tree with a random op sequence and
// checks every answer against a map+sort model, validating RB invariants
// along the way.
func TestRandomAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Tree[uint64]
	model := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0:
			tr.Insert(k, k*2)
			model[k] = k * 2
		case 1:
			delTree := tr.Delete(k)
			_, inModel := model[k]
			if delTree != inModel {
				t.Fatalf("Delete(%d) = %v, model has %v", k, delTree, inModel)
			}
			delete(model, k)
		case 2:
			v, ok := tr.Get(k)
			mv, mok := model[k]
			if ok != mok || v != mv {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, v, ok, mv, mok)
			}
		}
		if i%997 == 0 {
			if ok, why := tr.checkInvariants(); !ok {
				t.Fatalf("invariant broken after %d ops: %s", i, why)
			}
			if tr.Len() != len(model) {
				t.Fatalf("len %d != model %d", tr.Len(), len(model))
			}
		}
	}
	if ok, why := tr.checkInvariants(); !ok {
		t.Fatalf("final invariant: %s", why)
	}
}

// Property: for any key set, Floor and Ceiling agree with a sorted-slice
// model.
func TestQuickFloorCeiling(t *testing.T) {
	f := func(keys []uint16, queries []uint16) bool {
		var tr Tree[struct{}]
		set := map[uint64]bool{}
		for _, k := range keys {
			tr.Insert(uint64(k), struct{}{})
			set[uint64(k)] = true
		}
		sorted := make([]uint64, 0, len(set))
		for k := range set {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range queries {
			qq := uint64(q)
			// model floor
			var mf uint64
			mfOK := false
			for _, k := range sorted {
				if k <= qq {
					mf, mfOK = k, true
				}
			}
			gf, _, gok := tr.Floor(qq)
			if gok != mfOK || (gok && gf != mf) {
				return false
			}
			// model ceiling
			var mc uint64
			mcOK := false
			for i := len(sorted) - 1; i >= 0; i-- {
				if sorted[i] >= qq {
					mc, mcOK = sorted[i], true
				}
			}
			gc, _, cok := tr.Ceiling(qq)
			if cok != mcOK || (cok && gc != mc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RB invariants hold after any interleaving of inserts and
// deletes.
func TestQuickInvariants(t *testing.T) {
	f := func(ops []int16) bool {
		var tr Tree[int]
		for _, op := range ops {
			k := uint64(op) & 0x3ff
			if op < 0 {
				tr.Delete(k)
			} else {
				tr.Insert(k, int(op))
			}
			if ok, _ := tr.checkInvariants(); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnReusesNodes: deleting and inserting at a steady size reuses
// the deleted nodes.
func TestChurnReusesNodes(t *testing.T) {
	var tr Tree[int]
	for k := uint64(0); k < 64; k++ {
		tr.Insert(k, int(k))
	}
	next := uint64(64)
	churn := func() {
		tr.Delete(next - 64)
		tr.Insert(next, int(next))
		next++
	}
	if allocs := testing.AllocsPerRun(200, churn); allocs != 0 {
		t.Fatalf("delete+insert allocated %v times, want 0", allocs)
	}
	if tr.Len() != 64 {
		t.Fatalf("Len = %d, want 64", tr.Len())
	}
	for k := next - 64; k < next; k++ {
		if v, ok := tr.Get(k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
}
