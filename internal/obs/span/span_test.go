package span

import (
	"bytes"
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/sim"
)

// runOne drives a single-thread scenario with the collector attached as
// the engine's charge observer, the way the kernel wires it.
func runOne(c *Collector, body func(t *sim.Thread)) *sim.Engine {
	e := sim.New()
	e.SetChargeObserver(c.Observe)
	e.Go("t0", 0, 0, body)
	e.Run()
	return e
}

// TestSelfTimeReconciliation is the layer's core invariant on a nested
// span tree: every charge lands in exactly one of booked/outside, the
// totals match the engine, and tree self-times roll up children.
func TestSelfTimeReconciliation(t *testing.T) {
	c := New(4)
	e := runOne(c, func(th *sim.Thread) {
		th.Charge(7) // before any span: outside
		c.Begin(th, "outer")
		th.Charge(100)
		c.Begin(th, "inner")
		th.Charge(50)
		c.End(th)
		th.Charge(25)
		c.End(th)
		th.Charge(3) // after: outside
	})
	if got := c.BookedCycles(); got != 175 {
		t.Errorf("booked = %d, want 175", got)
	}
	if got := c.OutsideCycles(); got != 10 {
		t.Errorf("outside = %d, want 10", got)
	}
	if got, want := c.ObservedCycles(), e.TotalCharged(); got != want {
		t.Errorf("observed %d != engine charged %d", got, want)
	}
	exs := c.Export()
	if len(exs) != 1 {
		t.Fatalf("exported %d segments, want 1", len(exs))
	}
	byClass := map[string]ClassExport{}
	for _, ce := range exs[0].Classes {
		byClass[ce.Class] = ce
	}
	outer := byClass["outer"]
	if outer.SelfCycles != 175 || outer.TotalCycles != 175 {
		t.Errorf("outer self/total = %d/%d, want 175/175", outer.SelfCycles, outer.TotalCycles)
	}
	inner := byClass["inner"]
	if inner.SelfCycles != 50 {
		t.Errorf("inner self = %d, want 50", inner.SelfCycles)
	}
	// The outer exemplar tree must carry the inner span as a child with
	// the split self-times intact.
	tree := exs[0].Exemplars["outer"][0]
	if tree.Self != 125 || tree.TreeSelf != 175 {
		t.Errorf("outer exemplar self/treeSelf = %d/%d, want 125/175", tree.Self, tree.TreeSelf)
	}
	if len(tree.Children) != 1 || tree.Children[0].Class != "inner" || tree.Children[0].Self != 50 {
		t.Errorf("outer exemplar children = %+v", tree.Children)
	}
}

// TestWaitClassification checks both wait flavours: charged stalls
// classified from charge labels (subset of self) and uncharged blocked
// gaps via Wait plus clock advance without charges (subset of
// dur − treeSelf).
func TestWaitClassification(t *testing.T) {
	c := New(1)
	runOne(c, func(th *sim.Thread) {
		c.Begin(th, "op")
		th.ChargeAs("bw_stall", 40)
		th.ChargeAs("remote_read", 10)
		th.ChargeAs("ipi_send", 5)
		th.Charge(45) // plain work, no wait kind
		th.Sleep(30)  // uncharged gap: blocked time
		c.Wait(th, WaitMmapSem, 30)
		c.End(th)
	})
	ex := c.Export()[0]
	ce := ex.Classes[0]
	if ce.TotalCycles != 130 {
		t.Fatalf("dur = %d, want 130 (100 charged + 30 slept)", ce.TotalCycles)
	}
	if ce.SelfCycles != 100 {
		t.Fatalf("self = %d, want 100", ce.SelfCycles)
	}
	want := map[string]uint64{"pmem_bw": 40, "remote_numa": 10, "ipi": 5, "mmap_sem": 30}
	for k, v := range want {
		if ce.Waits[k] != v {
			t.Errorf("waits[%s] = %d, want %d", k, ce.Waits[k], v)
		}
	}
	d := ce.P99
	if d == nil {
		t.Fatal("no p99 exemplar")
	}
	if d.TotalCycles != 130 || d.SelfCycles != 100 || d.BlockedCycles != 30 {
		t.Errorf("p99 decomp = %+v, want 130/100/30", d)
	}
}

// TestJournalChildRule: a journal.commit child folds into the parent as
// one opaque journal_flush wait of the commit's full duration — its
// internal bw stalls must not double-book onto the parent.
func TestJournalChildRule(t *testing.T) {
	c := New(1)
	runOne(c, func(th *sim.Thread) {
		c.Begin(th, "syscall.append")
		th.Charge(20)
		c.Begin(th, ClassJournalCommit)
		th.ChargeAs("bw_stall", 30)
		th.Charge(20)
		c.End(th)
		c.End(th)
	})
	ex := c.Export()[0]
	byClass := map[string]ClassExport{}
	for _, ce := range ex.Classes {
		byClass[ce.Class] = ce
	}
	app := byClass["syscall.append"]
	if app.Waits["journal_flush"] != 50 {
		t.Errorf("parent journal_flush = %d, want 50 (commit dur)", app.Waits["journal_flush"])
	}
	if app.Waits["pmem_bw"] != 0 {
		t.Errorf("parent pmem_bw = %d, want 0 (folded into journal_flush)", app.Waits["pmem_bw"])
	}
	if app.SelfCycles != 70 {
		t.Errorf("parent tree self = %d, want 70 (commit work still self-time)", app.SelfCycles)
	}
	jc := byClass[ClassJournalCommit]
	if jc.Waits["pmem_bw"] != 30 {
		t.Errorf("commit class pmem_bw = %d, want 30", jc.Waits["pmem_bw"])
	}
}

// TestRemoteChargesStayOutsideSpans: AddRemote advances the target's
// clock (stretching span duration) but books to no span, so self-time
// remains exactly the cycles the op's own thread charged.
func TestRemoteChargesStayOutsideSpans(t *testing.T) {
	c := New(1)
	e := sim.New()
	e.SetChargeObserver(c.Observe)
	var victim *sim.Thread
	e.Go("victim", 0, 0, func(th *sim.Thread) {
		victim = th
		c.Begin(th, "access")
		th.Charge(100)
		th.Sleep(50) // window for the remote booking
		c.End(th)
	})
	e.Go("ipi", 1, 120, func(th *sim.Thread) {
		victim.AddRemote("shootdown.ipi_handler", 25)
	})
	e.Run()
	if got := c.RemoteCycles(); got != 25 {
		t.Errorf("remote = %d, want 25", got)
	}
	ce := c.Export()[0].Classes[0]
	if ce.SelfCycles != 100 {
		t.Errorf("self = %d, want 100 (remote booking excluded)", ce.SelfCycles)
	}
	// The remote booking lands inside the sleep window, which already
	// covers it: dur stays 150 and the handler cost is in no span.
	if ce.TotalCycles != 150 {
		t.Errorf("dur = %d, want 150", ce.TotalCycles)
	}
	if got, want := c.ObservedCycles(), e.TotalCharged(); got != want {
		t.Errorf("observed %d != engine charged %d", got, want)
	}
}

// TestExemplarReservoirDeterminism pins the top-K rules: strict-greater
// replacement (ties keep the earliest op) and slowest-first export
// order with arrival-order tiebreak.
func TestExemplarReservoirDeterminism(t *testing.T) {
	c := New(2)
	durs := []uint64{10, 30, 20, 30, 5, 30}
	runOne(c, func(th *sim.Thread) {
		for _, d := range durs {
			c.Begin(th, "op")
			th.Sleep(d)
			c.End(th)
		}
	})
	trees := c.Export()[0].Exemplars["op"]
	if len(trees) != 2 {
		t.Fatalf("kept %d exemplars, want 2", len(trees))
	}
	// Both kept exemplars are 30-cycle ops; the first and second 30s
	// (starts 10 and 60) survive, the third is a tie and is dropped.
	if trees[0].Dur != 30 || trees[1].Dur != 30 {
		t.Fatalf("kept durs %d,%d, want 30,30", trees[0].Dur, trees[1].Dur)
	}
	if trees[0].Start != 10 || trees[1].Start != 60 {
		t.Errorf("kept starts %d,%d, want 10,60 (earliest ties win, arrival order)", trees[0].Start, trees[1].Start)
	}
}

// TestSegments mirrors the timeline contract: spans land in the segment
// open at their End, and ExportSegment finds a named segment.
func TestSegments(t *testing.T) {
	c := New(1)
	e := sim.New()
	e.SetChargeObserver(c.Observe)
	e.Go("t0", 0, 0, func(th *sim.Thread) {
		c.Begin(th, "warmup")
		th.Charge(10)
		c.End(th)
	})
	e.Run()
	c.StartSegment("ftcost")
	e2 := sim.New()
	e2.SetChargeObserver(c.Observe)
	e2.Go("t0", 0, 0, func(th *sim.Thread) {
		c.Begin(th, "op")
		th.Charge(10)
		c.End(th)
	})
	e2.Run()
	exs := c.Export()
	if len(exs) != 2 || exs[0].Segment != "" || exs[1].Segment != "ftcost" {
		t.Fatalf("segments = %+v", exs)
	}
	seg, ok := c.ExportSegment("ftcost")
	if !ok || len(seg.Classes) != 1 || seg.Classes[0].Class != "op" {
		t.Fatalf("ExportSegment(ftcost) = %+v, %v", seg, ok)
	}
}

// TestNilCollector: every entry point must be a cheap no-op on nil, so
// unwired subsystems need no guards.
func TestNilCollector(t *testing.T) {
	var c *Collector
	runOne(c, func(th *sim.Thread) {
		c.Begin(th, "op")
		th.Charge(10)
		c.Wait(th, WaitMmapSem, 5)
		c.End(th)
	})
	if c.Export() != nil || c.ObservedCycles() != 0 {
		t.Fatal("nil collector must export nothing")
	}
	if _, ok := c.ExportSegment("x"); ok {
		t.Fatal("nil collector must have no segments")
	}
}

// TestChromeTraceExport sanity-checks the Perfetto export: slices for
// every span, one flow chain per multi-span exemplar, valid JSON shape.
func TestChromeTraceExport(t *testing.T) {
	c := New(1)
	runOne(c, func(th *sim.Thread) {
		c.Begin(th, "outer")
		th.Charge(10)
		c.Begin(th, "inner")
		th.Charge(5)
		c.End(th)
		c.End(th)
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c.Export(), 2700); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"X"`, `"ph":"s"`, `"ph":"f"`, `"cat":"exemplar"`, `"name":"outer"`, `"name":"inner"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// Two runs must serialize identically.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, c.Export(), 2700); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("trace export not deterministic")
	}
}

// TestEndWithoutBegin: unmatched End is an instrumentation bug and must
// fail loudly, like PopAttr without PushAttr.
func TestEndWithoutBegin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin did not panic")
		}
	}()
	c := New(1)
	runOne(c, func(th *sim.Thread) {
		c.End(th)
	})
}

// BenchmarkCollectorObserve times one charge booked into an open span,
// rotating over paths with and without a wait kind.
func BenchmarkCollectorObserve(b *testing.B) {
	var paths [8]obs.Path
	for i, p := range []string{"app.syscall.write", "app.syscall.write.ntstore", "app.access.bw_stall", "app.access.walk.pte_hit",
		"fault.minor", "app.syscall.read.copy", "app.access.data_remote", "app.access.fault.wp"} {
		paths[i] = obs.InternPath(p)
	}
	c := New(4)
	e := sim.New()
	e.Go("bench", 0, 0, func(t *sim.Thread) {
		c.Begin(t, "syscall.write")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Observe(t, paths[i%len(paths)], 10, false)
		}
		b.StopTimer()
		c.End(t)
	})
	e.Run()
}
