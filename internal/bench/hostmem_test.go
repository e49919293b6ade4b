package bench

import (
	"runtime"
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/pmem"
)

// TestHostMemoryBounded runs the gated experiments in one process on one
// shared hub, timeline and span collector, as daxbench does, and bounds
// the host memory each leaves behind and the device pages it touched:
//
//   - live heap after the run and a GC, which catches finished kernels
//     kept reachable by the shared observers;
//   - host pages allocated by the run's PMem devices (the sum of their
//     peak resident pages), which catches backing that scales with
//     device capacity instead of the bytes written.
//
// Each bound is about 1.5–4× the value measured on linux/amd64 with Go
// 1.24 (in the comments). With eager backing every device cost its full
// capacity: 1 GiB to 4 GiB of host pages per kernel.
func TestHostMemoryBounded(t *testing.T) {
	bounds := []struct {
		id        string
		liveMiB   uint64
		framesMiB uint64
	}{
		{"storage", 256, 192}, // measured 170 MiB live, 138 MiB pages
		{"ftcost", 32, 8},     // measured 12 MiB live, 2 MiB pages
		{"numa", 64, 96},      // measured 24 MiB live, 48 MiB pages
	}
	o := obs.New(0)
	opts := Options{
		Quick:    true,
		Obs:      o,
		Timeline: timeline.New(o.Reg, o.Cycles, timeline.Config{}),
		Spans:    span.New(3),
	}
	for _, b := range bounds {
		e, ok := ByID(b.id)
		if !ok {
			t.Fatalf("%s not registered", b.id)
		}
		frames0 := pmem.FramesAllocated()
		e.Run(opts)
		framesMiB := (pmem.FramesAllocated() - frames0) * mem.PageSize >> 20
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		liveMiB := ms.HeapAlloc >> 20
		t.Logf("%s: live heap %d MiB, device pages %d MiB", b.id, liveMiB, framesMiB)
		if liveMiB > b.liveMiB {
			t.Errorf("%s: live heap after run %d MiB, bound %d MiB", b.id, liveMiB, b.liveMiB)
		}
		if framesMiB > b.framesMiB {
			t.Errorf("%s: devices allocated %d MiB of host pages, bound %d MiB", b.id, framesMiB, b.framesMiB)
		}
	}
	runtime.KeepAlive(opts)
}
