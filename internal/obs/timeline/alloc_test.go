package timeline

import (
	"fmt"
	"testing"

	"daxvm/internal/obs"
)

// sampleRig is a timeline over n counters and n attribution paths (under
// n/4 roots), two histograms, a gauge and counter tracks, with a step
// that books work and takes one sampler wake.
type sampleRig struct {
	tl   *Timeline
	cyc  *obs.CycleAccount
	h    *obs.Histogram
	vals []uint64
	path []string
	now  uint64
	i    int
}

func newSampleRig(n int) *sampleRig {
	reg := obs.NewRegistry()
	r := &sampleRig{cyc: obs.NewCycleAccount(), vals: make([]uint64, n)}
	var tracks []string
	for i := range r.vals {
		name := fmt.Sprintf("c%03d.ops", i)
		reg.Counter(name, func() uint64 { return r.vals[i] })
		if i%16 == 0 {
			tracks = append(tracks, name)
		}
		r.path = append(r.path, fmt.Sprintf("r%d.leaf%d", i/4, i))
	}
	r.h = reg.Histogram("rig.lat")
	reg.Histogram("rig.idle")
	r.tl = New(reg, r.cyc, Config{BaseInterval: 64, Tracer: obs.NewTracer(1 << 10), TrackCounters: tracks})
	r.tl.Gauge("rig.depth", func(now uint64) uint64 { return now % 7 })
	r.tl.StartSegment("rig")
	return r
}

// step books work on a rotating subset of counters and paths, leaving
// every fifth window empty, and takes one wake.
func (r *sampleRig) step() {
	r.i++
	if r.i%5 != 0 {
		for j := r.i % 3; j < len(r.vals); j += 3 {
			r.vals[j] += uint64(j)
			r.cyc.Charge(j%2, r.path[j], uint64(1+j))
		}
		r.h.Observe(uint64(r.i))
	}
	r.now = r.tl.NextWake(r.now)
	r.tl.Sample(r.now)
}

// A steady-state sampler wake allocates the same (nothing) whether ten or
// two hundred counters and attribution paths are registered: readings
// are flat slices reused wake to wake, and intervals freed by coalescing
// are recycled.
func TestSampleAllocsIndependentOfRegistrySize(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{10, 200} {
		r := newSampleRig(n)
		for i := 0; i < 2000; i++ { // past several coalescing rounds
			r.step()
		}
		allocs[n] = testing.AllocsPerRun(1000, r.step)
	}
	if allocs[10] != allocs[200] || allocs[10] != 0 {
		t.Fatalf("allocs per steady-state Sample: %v with 10 counters, %v with 200; want 0 for both", allocs[10], allocs[200])
	}
}

func BenchmarkTimelineSample(b *testing.B) {
	for _, n := range []int{10, 200} {
		b.Run(fmt.Sprintf("counters=%d", n), func(b *testing.B) {
			r := newSampleRig(n)
			for i := 0; i < 2000; i++ {
				r.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step()
			}
		})
	}
}
