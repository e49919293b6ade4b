package kernel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/sim"
)

// TestFinishedKernelCollectable checks that observers shared across
// sequential boots do not keep finished kernels alive: once a second
// kernel has booted and run on the same hub, timeline and span
// collector, the first kernel's PMem device must become garbage. The
// hub's engine totals must still reconcile across both kernels.
func TestFinishedKernelCollectable(t *testing.T) {
	o := obs.New(0)
	cfg := Config{
		Cores: 2, DeviceBytes: 256 << 20, DaxVM: true, Obs: o,
		Timeline: timeline.New(o.Reg, o.Cycles, timeline.Config{}),
		Spans:    span.New(3),
	}
	var collected atomic.Int32
	bootAndRun := func() {
		k := Boot(cfg)
		k.Setup(func(th *sim.Thread) {
			p := k.NewProc()
			fd, err := p.Create(th, "setup")
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			p.Append(th, fd, make([]byte, 64<<10))
			p.Close(th, fd)
		})
		runObsWorkload(t, k)
		runtime.AddCleanup(k.Dev, func(n *atomic.Int32) { n.Add(1) }, &collected)
	}
	bootAndRun()
	bootAndRun()

	if got, want := o.EnginesTotal(), o.Cycles.Total(); got != want {
		t.Fatalf("engine totals %d != cycle account total %d", got, want)
	}
	if got, want := cfg.Spans.ObservedCycles(), o.EnginesTotal(); got != want {
		t.Fatalf("span collector observed %d cycles, engines charged %d", got, want)
	}
	if o.EnginesEvents() == 0 {
		t.Fatal("no engine events folded into the hub")
	}
	// Cleanups run on their own goroutine after the collection that
	// finds the device unreachable.
	for i := 0; i < 50 && collected.Load() == 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if collected.Load() == 0 {
		t.Fatal("first kernel's device still reachable after a second boot on the same observers")
	}
	// The observers must outlive the check, or it proves nothing.
	runtime.KeepAlive(cfg)
}
