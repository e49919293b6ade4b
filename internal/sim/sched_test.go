package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// --- concrete heap ---

// TestThreadHeapPopOrder pins that the concrete-typed heap pops in
// ascending (wakeAt, seq) order — seq is unique, so this is a total
// order and the exact dispatch sequence the engine depends on.
func TestThreadHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h threadHeap
	var ts []*Thread
	for i := 0; i < 500; i++ {
		th := &Thread{wakeAt: uint64(rng.Intn(50)), seq: uint64(i + 1), index: -1}
		ts = append(ts, th)
		h.push(th)
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].wakeAt != ts[j].wakeAt {
			return ts[i].wakeAt < ts[j].wakeAt
		}
		return ts[i].seq < ts[j].seq
	})
	for i, want := range ts {
		got := h.pop()
		if got != want {
			t.Fatalf("pop %d: got (wakeAt=%d seq=%d), want (wakeAt=%d seq=%d)",
				i, got.wakeAt, got.seq, want.wakeAt, want.seq)
		}
		if got.index != -1 {
			t.Fatalf("pop %d: index not reset, got %d", i, got.index)
		}
	}
	if h.pop() != nil {
		t.Fatal("pop of empty heap should return nil")
	}
}

// TestThreadsReturnsCopy pins the aliasing fix: mutating the returned
// slice must not corrupt the engine's own registry.
func TestThreadsReturnsCopy(t *testing.T) {
	e := New()
	e.Go("a", 0, 0, func(t *Thread) {})
	e.Go("b", 1, 0, func(t *Thread) {})
	got := e.Threads()
	got[0] = nil
	got = append(got, nil)
	_ = got
	again := e.Threads()
	if len(again) != 2 || again[0] == nil || again[0].Name != "a" {
		t.Fatalf("engine registry corrupted through Threads(): %+v", again)
	}
}

// TestDumpIncludesAttr pins the deadlock dump: each thread line carries
// its innermost attribution path and what it is blocked on.
func TestDumpIncludesAttr(t *testing.T) {
	e := New()
	e.Go("stuck", 3, 0, func(t *Thread) {
		t.PushAttr("fs.write")
		t.Block("nothing")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"stuck", "core=3", "attr=fs.write", "blocked on nothing"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("deadlock dump missing %q:\n%s", want, msg)
			}
		}
	}()
	e.Run()
}
