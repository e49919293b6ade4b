package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"daxvm/internal/core"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/sim"
)

// workload runs one measured phase: its set-ups, then measured work for
// the given host seconds. tr is nil for an untraced phase.
type workload func(in inputs, sz sizes, tr *tracer, seconds float64, setupReps int) phase

var workloads = map[string]workload{
	"boot-append": bootAppend,
	"serve-mixed": serveMixed,
	"repeat-rw":   repeatRW,
}

func deadline(start time.Time, seconds float64) time.Time {
	return start.Add(time.Duration(seconds * float64(time.Second)))
}

// snapshot reads the registry as an obs-layer call.
func snapshot(tr *tracer, h hub, tid int) obs.Snapshot {
	s := tr.begin(layerObs, "Snapshot", tid)
	defer tr.end(s)
	return h.o.Reg.Snapshot()
}

// bootAppend boots kernels in pairs, ext4 without and with DaxVM sharing
// one hub, and churns files on each: the boot path and the fs write path
// under load, with almost no mm, core, cpu or dispatch work. Pairs cycle
// through the seed's scripts; the digest covers the first pass, and every
// later pair must reproduce its script's digest. setup_s is the median
// host time of one pair's two boots.
func bootAppend(in inputs, sz sizes, tr *tracer, seconds float64, _ int) phase {
	ph := phase{counts: map[string]uint64{}}
	paths := make([]string, sz.cyclesPerKernel)
	for j := range paths {
		paths[j] = fmt.Sprintf("f%03d", j)
	}
	buf := make([]byte, sz.maxAppend)
	first := make([]string, len(in.scripts))
	base := runtime.NumGoroutine()
	alloc0 := heapAllocated()
	end := deadline(time.Now(), seconds)
	for i := 0; i < len(in.scripts) || time.Now().Before(end); i++ {
		// The previous pair's hub kept both its kernels reachable. Free
		// them and hand their pages back, so this pair's peak memory is
		// its own: a freed device left resident would be counted again
		// whenever fragmentation puts the next device elsewhere.
		isolate(base)
		script := in.scripts[i%len(in.scripts)]
		h := newHub("boot-append")
		var ds []string
		var bootTime time.Duration
		for v, daxvm := range []bool{false, true} {
			t0 := time.Now()
			k := boot(tr, h.config(1, sz.deviceBytes, daxvm))
			t1 := time.Now()
			bootTime += t1.Sub(t0)
			p := k.NewProc()
			e := env{p: p, tr: tr, tid: 0}
			cycles := script[v]
			p.Spawn("churn", 0, 0, func(t *sim.Thread, c *cpu.Core) {
				tr.enterThread()
				for j, cyc := range cycles {
					ph.ops++
					if !churnFile(e, t, paths[j], in.payload[cyc.off:cyc.off+cyc.size], buf) {
						ph.failed++
					}
				}
			})
			prevCycles, prevReg := h.o.Cycles.Snapshot(), h.o.Reg.Snapshot()
			makespan := run(tr, k)
			snap := snapshot(tr, h, mainTID)
			h.export(tr, prevCycles, prevReg)
			ph.measured += time.Since(t1)
			ds = append(ds, digest(makespan, snap))
			if i < len(in.scripts) {
				addCounts(ph.counts, snap)
			}
		}
		ph.setups = append(ph.setups, bootTime)
		ph.peakRSS = max(ph.peakRSS, peakRSS())
		ph.events += h.o.EnginesEvents()
		d := combine(ds)
		switch {
		case i < len(in.scripts):
			first[i] = d
			ph.prefixEvts += h.o.EnginesEvents()
		case first[i%len(in.scripts)] != d:
			ph.failed++
		}
	}
	ph.digest = combine(first)
	ph.allocBytes = heapAllocated() - alloc0
	return ph
}

// churnFile creates a file, appends data, fsyncs, reads it back and
// compares byte for byte, then closes and unlinks it. It reports whether
// every step succeeded.
func churnFile(e env, t *sim.Thread, path string, data, buf []byte) bool {
	fd, err := e.create(t, path)
	if err != nil {
		return false
	}
	ok := e.append(t, fd, data) == nil && e.fsync(t, fd) == nil
	if ok {
		n, err := e.readAt(t, fd, 0, buf[:len(data)])
		ok = err == nil && n == uint64(len(data)) && bytes.Equal(buf[:n], data)
	}
	if e.close(t, fd) != nil {
		ok = false
	}
	if e.unlink(t, path) != nil {
		ok = false
	}
	return ok
}

// serveMixed boots one 16-core kernel over a corpus of small files and
// has one simulated thread per core serve seeded requests through read(2),
// POSIX mmap or daxvm_mmap (the Fig. 1b/8a shape): mm, core, dispatch
// and lock handoffs under load, with one boot and no writes. Threads meet
// at a barrier after every round; the digest is taken at the barrier
// that ends the deterministic prefix, and the last thread to arrive
// decides from the host clock whether another round runs.
func serveMixed(in inputs, sz sizes, tr *tracer, seconds float64, setupReps int) phase {
	ph := phase{counts: map[string]uint64{}}
	paths := make([]string, sz.corpusFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("c%05d", i)
	}
	b := setUp(&ph, tr, setupReps, "serve-mixed", sz.serveThreads, sz, func(e env, t *sim.Thread) {
		for i, path := range paths {
			fd, err := e.create(t, path)
			if err != nil {
				ph.failed++
				continue
			}
			off := in.fileOff[i]
			if e.append(t, fd, in.payload[off:off+sz.fileBytes]) != nil {
				ph.failed++
			}
			if e.close(t, fd) != nil {
				ph.failed++
			}
		}
	})
	end := deadline(b.begin(), seconds)
	bar := &barrier{eng: b.k.Engine, n: sz.serveThreads}
	var (
		rounds   int
		more     = true
		maxClock uint64
	)
	for w := 0; w < sz.serveThreads; w++ {
		e := env{p: b.p, tr: tr, tid: w}
		reqs := in.requests[w]
		buf := make([]byte, sz.fileBytes)
		b.p.Spawn(fmt.Sprintf("serve%02d", w), w, 0, func(t *sim.Thread, c *cpu.Core) {
			tr.enterThread()
			for r := 0; more; r++ {
				for j := 0; j < sz.roundRequests; j++ {
					q := reqs[(r*sz.roundRequests+j)%len(reqs)]
					off := in.fileOff[q.file]
					ph.ops++
					if !serve(e, t, c, q.kind, paths[q.file], in.payload[off:off+sz.fileBytes], buf) {
						ph.failed++
					}
				}
				if t.Now() > maxClock {
					maxClock = t.Now()
				}
				bar.wait(t, func() {
					rounds++
					if rounds == sz.minRounds {
						b.prefixDone(&ph, tr, w, maxClock)
					}
					more = rounds < sz.minRounds || time.Now().Before(end)
				})
			}
		})
	}
	b.finish(&ph, tr)
	return ph
}

// serve opens one file, reads all of it through the request's interface,
// and closes it. A read(2) is compared byte for byte with the file's
// contents; mapped reads carry no data in the model, so they are checked
// by their errors and the digest.
func serve(e env, t *sim.Thread, c *cpu.Core, kind requestKind, path string, want, buf []byte) bool {
	fd, err := e.open(t, path)
	if err != nil {
		return false
	}
	n := uint64(len(want))
	var ok bool
	switch kind {
	case reqRead:
		got, err := e.readAt(t, fd, 0, buf)
		ok = err == nil && got == n && bytes.Equal(buf[:got], want)
	case reqMmap:
		va, err := e.mmap(t, c, fd, n, mem.PermRead, mm.MapShared|mm.MapSync)
		if err == nil {
			ok = e.access(t, c, va, n, kernel.KindCopyOut) == nil
			ok = e.munmap(t, c, va, n) == nil && ok
		}
	case reqDaxVM:
		va, err := e.daxvmMmap(t, c, fd, n, mem.PermRead, core.FlagEphemeral|core.FlagUnmapAsync)
		if err == nil {
			ok = e.access(t, c, va, n, kernel.KindCopyOut) == nil
			ok = e.daxvmMunmap(t, c, va) == nil && ok
		}
	}
	if e.close(t, fd) != nil {
		ok = false
	}
	return ok
}

// repeatRW boots one single-core kernel with one large file, maps it once
// through POSIX mmap (populate) and once through daxvm_mmap (nosync), and
// makes seeded random 4 KiB loads through the DaxVM mapping with stores
// beside them through the POSIX one, msync'ing that mapping every
// syncWindow bytes written (the Fig. 5/6 shape): the mapped data path and
// msync under load, with no boots, no dispatch and almost no syscalls.
func repeatRW(in inputs, sz sizes, tr *tracer, seconds float64, setupReps int) phase {
	ph := phase{counts: map[string]uint64{}}
	var fd int
	b := setUp(&ph, tr, setupReps, "repeat-rw", 1, sz, func(e env, t *sim.Thread) {
		var err error
		if fd, err = e.create(t, "big"); err != nil {
			ph.failed++
			return
		}
		if e.fallocate(t, fd, sz.rwFileBytes) != nil {
			ph.failed++
		}
	})
	end := deadline(b.begin(), seconds)
	e := env{p: b.p, tr: tr, tid: 0}
	size := sz.rwFileBytes
	const unit = mem.PageSize
	b.p.Spawn("rw", 0, 0, func(t *sim.Thread, c *cpu.Core) {
		tr.enterThread()
		rw := mem.PermRead | mem.PermWrite
		stores, err := e.mmap(t, c, fd, size, rw, mm.MapShared|mm.MapSync|mm.MapPopulate)
		if err != nil {
			ph.failed++
			return
		}
		loads, err := e.daxvmMmap(t, c, fd, size, rw, core.FlagNoMsync)
		if err != nil {
			ph.failed++
			return
		}
		var written uint64
		for r := 0; ; r++ {
			for j := 0; j < sz.roundAccesses; j++ {
				a := in.accesses[(r*sz.roundAccesses+j)%len(in.accesses)]
				ph.ops++
				if e.access(t, c, loads+mem.VirtAddr(a.off), unit, kernel.KindSum) != nil {
					ph.failed++
				}
				if !a.store {
					continue
				}
				ph.ops++
				if e.access(t, c, stores+mem.VirtAddr(a.off+unit), unit, kernel.KindCachedWrite) != nil {
					ph.failed++
				}
				if written += unit; written >= sz.syncWindow {
					written = 0
					if e.msync(t, c, stores, size) != nil {
						ph.failed++
					}
				}
			}
			if r+1 == sz.minRounds {
				b.prefixDone(&ph, tr, 0, t.Now())
			}
			if r+1 >= sz.minRounds && !time.Now().Before(end) {
				break
			}
		}
		if e.munmap(t, c, stores, size) != nil {
			ph.failed++
		}
		if e.daxvmMunmap(t, c, loads) != nil {
			ph.failed++
		}
	})
	b.finish(&ph, tr)
	return ph
}

// booted is a kernel set up for measured work, with the baselines the
// work is measured from.
type booted struct {
	k *kernel.Kernel
	p *kernel.Proc
	h hub

	cycles0 obs.CycleSnapshot
	reg0    obs.Snapshot
	events0 uint64
	alloc0  uint64
	start   time.Time
}

// setUp boots a DaxVM kernel with a fresh hub and fills it on a setup
// thread, reps times, timing each set-up from a collected heap. Every
// repetition must leave the same registry; the last one is returned.
func setUp(ph *phase, tr *tracer, reps int, segment string, cores int, sz sizes, fill func(e env, t *sim.Thread)) *booted {
	var b *booted
	var first string
	base := runtime.NumGoroutine()
	for r := 0; r < reps; r++ {
		b = nil
		isolate(base)
		t0 := time.Now()
		h := newHub(segment)
		k := boot(tr, h.config(cores, sz.deviceBytes, true))
		b = &booted{k: k, p: k.NewProc(), h: h}
		e := env{p: b.p, tr: tr, tid: 0}
		setup(tr, k, func(t *sim.Thread) { fill(e, t) })
		ph.setups = append(ph.setups, time.Since(t0))
		d := digest(0, h.o.Reg.Snapshot())
		if r == 0 {
			first = d
		} else if d != first {
			ph.failed++
		}
	}
	return b
}

// begin takes the baselines and starts the measured work's clock.
func (b *booted) begin() time.Time {
	b.cycles0, b.reg0 = b.h.o.Cycles.Snapshot(), b.h.o.Reg.Snapshot()
	b.events0 = b.h.o.EnginesEvents()
	b.alloc0 = heapAllocated()
	b.start = time.Now()
	return b.start
}

// prefixDone records the digest, engine events and work counts at the end
// of the deterministic prefix; a simulated thread calls it.
func (b *booted) prefixDone(ph *phase, tr *tracer, tid int, makespan uint64) {
	snap := snapshot(tr, b.h, tid)
	ph.digest = digest(makespan, snap)
	ph.prefixEvts = b.h.o.EnginesEvents() - b.events0
	addCounts(ph.counts, snap.Delta(b.reg0))
}

// finish runs the spawned threads to completion, makes the post-run
// export, and records the measured time, events, allocation and peak
// memory.
func (b *booted) finish(ph *phase, tr *tracer) {
	run(tr, b.k)
	b.h.export(tr, b.cycles0, b.reg0)
	ph.measured = time.Since(b.start)
	ph.events = b.h.o.EnginesEvents() - b.events0
	ph.allocBytes = heapAllocated() - b.alloc0
	ph.peakRSS = peakRSS()
}
