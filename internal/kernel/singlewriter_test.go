package kernel

import (
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/sim"
)

// TestObsSingleWriter exercises the observability hub's single-writer
// contract: the cycle account, span collector and tracer have no locks,
// because every write to them runs inside the engine's running thread
// and every read happens there or after Run. A 4-core boot with
// all of them attached (plus the timeline sampler, which reads the
// account and writes the tracer from its own daemon) runs 4 threads of
// syscalls and mapped accesses; the test then reads everything back.
// Under `go test -race` a write from any other goroutine during Run — or
// a thread still unwinding after it — is reported as a data race.
func TestObsSingleWriter(t *testing.T) {
	o := obs.New(0)
	tl := timeline.New(o.Reg, o.Cycles, timeline.Config{
		BaseInterval:  1 << 14,
		Tracer:        o.Trace,
		TrackCounters: []string{"mm.mmaps"},
	})
	sp := span.New(3)
	k := Boot(Config{Cores: 4, DeviceBytes: 512 << 20, DaxVM: true, Obs: o, Timeline: tl, Spans: sp})
	tl.StartSegment("singlewriter")
	sp.StartSegment("singlewriter")

	p := k.NewProc()
	for i := 0; i < 4; i++ {
		i := i
		name := string(rune('a' + i))
		p.Spawn("worker-"+name, i, 0, func(th *sim.Thread, c *cpu.Core) {
			fd, err := p.Create(th, name)
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			p.Append(th, fd, make([]byte, 256<<10))
			p.Fsync(th, fd)
			p.ReadAt(th, fd, 0, make([]byte, 64<<10))
			for round := 0; round < 4; round++ {
				if i%2 == 0 {
					va, err := p.Mmap(th, c, fd, 0, 256<<10, mem.PermRead|mem.PermWrite, mm.MapShared|mm.MapSync)
					if err != nil {
						t.Errorf("Mmap: %v", err)
						return
					}
					p.AccessMapped(th, c, va, 64<<10, KindSum)
					p.AccessMapped(th, c, va, 64<<10, KindCachedWrite)
					p.Msync(th, c, va, 256<<10)
					p.Munmap(th, c, va, 256<<10)
				} else {
					va, err := p.DaxvmMmap(th, c, fd, 0, 256<<10, mem.PermRead, 0)
					if err != nil {
						t.Errorf("DaxvmMmap: %v", err)
						return
					}
					p.AccessMapped(th, c, va, 64<<10, KindSum)
					p.DaxvmMunmap(th, c, va)
				}
			}
			p.Close(th, fd)
		})
	}
	if k.Run() == 0 {
		t.Fatal("no virtual time elapsed")
	}

	snap := o.Cycles.Snapshot()
	if snap.Total == 0 || snap.Total != o.EnginesTotal() {
		t.Fatalf("account total %d, engines charged %d", snap.Total, o.EnginesTotal())
	}
	if got := sp.ObservedCycles(); got != o.EnginesTotal() {
		t.Fatalf("span collector observed %d cycles, engines charged %d", got, o.EnginesTotal())
	}
	if len(o.Trace.Events()) == 0 {
		t.Fatal("tracer retained no events")
	}
	seg, ok := sp.ExportSegment("singlewriter")
	if !ok || len(seg.Classes) == 0 {
		t.Fatal("span collector exported no op classes")
	}
	var tlCycles uint64
	for _, ex := range tl.Export() {
		for _, iv := range ex.Intervals {
			tlCycles += iv.Cycles
		}
	}
	if tlCycles == 0 {
		t.Fatal("timeline sampled no cycles")
	}
}
