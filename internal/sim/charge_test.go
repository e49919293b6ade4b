package sim_test

import (
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// chargeFrame is one steady-state attribution frame: open, a labelled
// leaf charge, a plain charge, close.
func chargeFrame(t *sim.Thread) {
	t.PushAttr("syscall.write")
	t.ChargeAs("ntstore", 10)
	t.Charge(5)
	t.PopAttr()
}

// runFrames runs body on one thread of an engine wired like a kernel's:
// the cycle account as sink and the span collector as observer, each
// when asked for, with a frame and a span open around body.
func runFrames(sink, spans bool, body func(t *sim.Thread)) {
	e := sim.New()
	var c *span.Collector
	if sink {
		e.SetChargeSink(obs.NewCycleAccount().Book)
	}
	if spans {
		c = span.New(4)
		e.SetChargeObserver(c.Observe)
	}
	e.Go("frames", 0, 0, func(t *sim.Thread) {
		t.PushAttr("app")
		c.Begin(t, "syscall.write")
		chargeFrame(t) // warm the join cache and the leaves
		body(t)
		c.End(t)
		t.PopAttr()
	})
	e.Run()
}

// A steady-state frame allocates nothing with the account and the span
// collector attached: paths resolve through the engine's join cache and
// book into slices indexed by path id.
func TestChargeFrameAllocs(t *testing.T) {
	var allocs float64
	runFrames(true, true, func(th *sim.Thread) {
		allocs = testing.AllocsPerRun(1000, func() { chargeFrame(th) })
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame allocates %v times, want 0", allocs)
	}
}

// BenchmarkCharge times one chargeFrame: bare, with the cycle account as
// sink, and with the span collector observing an open span as well.
func BenchmarkCharge(b *testing.B) {
	for _, tc := range []struct {
		name        string
		sink, spans bool
	}{{"bare", false, false}, {"sink", true, false}, {"sink+span", true, true}} {
		b.Run(tc.name, func(b *testing.B) {
			runFrames(tc.sink, tc.spans, func(t *sim.Thread) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					chargeFrame(t)
				}
				b.StopTimer()
			})
		})
	}
}
