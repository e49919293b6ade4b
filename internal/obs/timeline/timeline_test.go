package timeline

import (
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/sim"
)

// drive books cycles and counter increments at controlled virtual times
// through the Timeline's public surface.
func TestIntervalsReconcileAndCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	h := reg.Histogram("test.lat")
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 16, MaxIntervals: 8})

	tl.StartSegment("seg")
	var now uint64
	for i := 0; i < 200; i++ {
		cyc.Book(0, obs.InternPath("app.work"), 7)
		cyc.Book(0, obs.InternPath("fault.minor"), 3)
		ops++
		h.Observe(uint64(100 + i))
		now = tl.NextWake(now)
		tl.Sample(now)
	}
	tl.FlushRun("run", now+5)

	exs := tl.Export()
	if len(exs) != 1 {
		t.Fatalf("exports = %d, want 1", len(exs))
	}
	ex := exs[0]
	if ex.Segment != "seg" {
		t.Fatalf("segment = %q", ex.Segment)
	}
	if n := len(ex.Intervals); n == 0 || n > 8 {
		t.Fatalf("intervals = %d, want in (0, 8]", n)
	}
	if ex.IntervalCycles <= 16 {
		t.Fatalf("period did not grow under coalescing: %d", ex.IntervalCycles)
	}
	var cycles, opsSum, hcount uint64
	for _, iv := range ex.Intervals {
		cycles += iv.Cycles
		opsSum += iv.Counters["test.ops"]
		hcount += iv.Hists["test.lat"].Count
		if app := iv.Attr["app"]; iv.Cycles > 0 && app == 0 {
			t.Fatalf("interval missing app attribution: %+v", iv)
		}
	}
	if cycles != cyc.Total() {
		t.Fatalf("interval cycles sum %d != account total %d", cycles, cyc.Total())
	}
	if opsSum != ops {
		t.Fatalf("counter delta sum %d != %d", opsSum, ops)
	}
	if hcount != h.Count() {
		t.Fatalf("hist count sum %d != %d", hcount, h.Count())
	}
	if len(ex.Runs) != 1 || ex.Runs[0].Label != "run" {
		t.Fatalf("runs = %+v", ex.Runs)
	}
}

// The sampler daemon must leave simulated results untouched and reconcile
// against the engine it rides on.
func TestEngineSamplerReconciles(t *testing.T) {
	run := func(withTimeline bool) (uint64, []Export) {
		reg := obs.NewRegistry()
		cyc := obs.NewCycleAccount()
		e := sim.New()
		e.SetChargeSink(cyc.Book)
		var tl *Timeline
		if withTimeline {
			tl = New(reg, cyc, Config{BaseInterval: 64, MaxIntervals: 16})
			tl.StartSegment("eng")
			e.GoSampler("timeline", 0, tl.NextWake, tl.Sample)
		}
		e.Go("worker", 0, 0, func(th *sim.Thread) {
			th.PushAttr("app")
			for i := 0; i < 500; i++ {
				th.Charge(13)
				th.Yield()
			}
		})
		end := e.Run()
		tl.FlushRun("run", end)
		return e.TotalCharged(), tl.Export()
	}

	base, _ := run(false)
	charged, exs := run(true)
	if charged != base {
		t.Fatalf("sampler perturbed charged cycles: %d != %d", charged, base)
	}
	var cycles uint64
	for _, ex := range exs {
		for _, iv := range ex.Intervals {
			cycles += iv.Cycles
		}
	}
	if cycles != charged {
		t.Fatalf("timeline cycles %d != engine charged %d", cycles, charged)
	}
}

func TestSegmentsIndependent(t *testing.T) {
	reg := obs.NewRegistry()
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 32})

	tl.StartSegment("a")
	cyc.Book(0, obs.InternPath("app.x"), 100)
	tl.FlushRun("run", 40)

	tl.StartSegment("b")
	cyc.Book(0, obs.InternPath("app.x"), 9)
	tl.FlushRun("run", 10)

	exs := tl.Export()
	if len(exs) != 2 {
		t.Fatalf("exports = %d, want 2", len(exs))
	}
	b := exs[1]
	if b.Segment != "b" {
		t.Fatalf("segment = %q", b.Segment)
	}
	// Segment b must see only its own activity, on its own time origin.
	var cycles uint64
	for _, iv := range b.Intervals {
		cycles += iv.Cycles
		if iv.End > 10 {
			t.Fatalf("segment b interval beyond its run: %+v", iv)
		}
	}
	if cycles != 9 {
		t.Fatalf("segment b cycles = %d, want 9", cycles)
	}
}

func TestWriteCSV(t *testing.T) {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 32})
	tl.StartSegment("csv")
	cyc.Book(0, obs.InternPath("app.x"), 5)
	ops = 2
	tl.FlushRun("run", 20)

	var sb strings.Builder
	if err := WriteCSV(&sb, tl.Export()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "experiment,interval,start_cycles,end_cycles,series,value" {
		t.Fatalf("header = %q", lines[0])
	}
	want := []string{
		"csv,0,0,20,cycles,5",
		"csv,0,0,20,test.ops,2",
		"csv,0,0,20,attr.app,5",
	}
	for i, w := range want {
		if lines[1+i] != w {
			t.Fatalf("line %d = %q, want %q", 1+i, lines[1+i], w)
		}
	}
}

func TestCounterTracks(t *testing.T) {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	cyc := obs.NewCycleAccount()
	tr := obs.NewTracer(64)
	tl := New(reg, cyc, Config{BaseInterval: 32, Tracer: tr, TrackCounters: []string{"test.ops"}})
	tl.StartSegment("tr")
	cyc.Book(0, obs.InternPath("app.x"), 5)
	ops = 3
	tl.Sample(32)

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Type != obs.EvCounter || evs[0].Tag != "cycles" || evs[0].Arg != 5 {
		t.Fatalf("cycles track event = %+v", evs[0])
	}
	if evs[1].Tag != "test.ops" || evs[1].Arg != 3 {
		t.Fatalf("ops track event = %+v", evs[1])
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"ph":"C"`) {
		t.Fatalf("chrome trace missing counter phase:\n%s", sb.String())
	}
}
