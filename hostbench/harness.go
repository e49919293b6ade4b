package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"daxvm/internal/core"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/obs/bottleneck"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/sim"
)

// hub is the observability set daxbench attaches to every experiment: the
// obs hub, a timeline with the same counter tracks, and a span collector.
type hub struct {
	o   *obs.Obs
	tl  *timeline.Timeline
	sp  *span.Collector
	seg string
}

// timelineTracks mirrors daxbench's counter tracks.
var timelineTracks = []string{
	"cpu.faults",
	"mm.lock.read.wait_cycles",
	"mm.lock.wait_cycles",
	"pmem.bytes_read",
	"pmem.bytes_written",
	"pmem.nt_stores",
	"tlb.shootdowns",
}

func newHub(segment string) hub {
	o := obs.New(0)
	h := hub{
		o:   o,
		tl:  timeline.New(o.Reg, o.Cycles, timeline.Config{Tracer: o.Trace, TrackCounters: timelineTracks}),
		sp:  span.New(3),
		seg: segment,
	}
	h.tl.StartSegment(segment)
	h.sp.StartSegment(segment)
	return h
}

func (h hub) config(cores int, dev uint64, daxvm bool) kernel.Config {
	return kernel.Config{Cores: cores, DeviceBytes: dev, DaxVM: daxvm, Obs: h.o, Timeline: h.tl, Spans: h.sp}
}

// export makes the snapshot and export calls daxbench makes after an
// experiment with its export flags on: cycle and registry deltas, the
// cycle table, the critical-path table and the bottleneck verdict. The
// output is discarded; the host cost is what is measured.
func (h hub) export(tr *tracer, prevCycles obs.CycleSnapshot, prevReg obs.Snapshot) {
	s := tr.begin(layerObs, "export", mainTID)
	defer tr.end(s)
	cycles := h.o.Cycles.Snapshot().Delta(prevCycles)
	_ = h.o.Reg.Snapshot().Delta(prevReg)
	cycles.WriteTable(io.Discard, 12)
	seg, ok := h.sp.ExportSegment(h.seg)
	if ok {
		span.WriteTable(io.Discard, seg)
	}
	for _, ex := range h.tl.Export() {
		if ex.Segment == h.seg {
			_ = bottleneck.Analyze(ex, &seg)
		}
	}
}

// digest hashes a virtual end time and the sorted registry snapshot. The
// simulator is deterministic in virtual time, so a digest repeats exactly
// for the same inputs, traced or not, on any host.
func digest(makespan uint64, s obs.Snapshot) string {
	h := sha256.New()
	fmt.Fprintf(h, "makespan %d\n", makespan)
	for _, name := range obs.SortedKeys(s.Counters) {
		fmt.Fprintf(h, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range obs.SortedKeys(s.Hists) {
		hs := s.Hists[name]
		fmt.Fprintf(h, "%s count %d sum %d", name, hs.Count, hs.Sum)
		for _, b := range obs.SortedKeys(hs.Buckets) {
			fmt.Fprintf(h, " %d:%d", b, hs.Buckets[b])
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// combine hashes a list of digests into one.
func combine(ds []string) string {
	h := sha256.Sum256([]byte(strings.Join(ds, ",")))
	return hex.EncodeToString(h[:])[:16]
}

// workCounts are the simulated work counts reported by the traced run.
var workCounts = []string{"tlb.shootdowns", "cpu.faults", "pmem.bytes_read", "pmem.bytes_written", "mm.lock.wait_cycles"}

// addCounts adds the work counters of d into acc.
func addCounts(acc map[string]uint64, d obs.Snapshot) {
	for _, n := range workCounts {
		acc[n] += d.Get(n)
	}
}

// phase is what one measured phase of a workload reports.
type phase struct {
	ops, failed uint64
	measured    time.Duration   // host time of the measured work
	setups      []time.Duration // host time of each set-up
	digest      string          // virtual digest of the deterministic prefix
	counts      map[string]uint64
	prefixEvts  uint64 // engine events in the deterministic prefix
	events      uint64 // engine events in the measured work
	allocBytes  uint64 // heap bytes allocated by the measured work
	peakRSS     uint64 // bytes
}

// env wraps every call the benchmark makes into a layer: each wrapper is
// a span and a pprof label when tracing, and a plain call otherwise.
type env struct {
	p   *kernel.Proc
	tr  *tracer
	tid int
}

func (e env) create(t *sim.Thread, path string) (int, error) {
	s := e.tr.begin(layerFS, "Create", e.tid)
	defer e.tr.end(s)
	return e.p.Create(t, path)
}

func (e env) open(t *sim.Thread, path string) (int, error) {
	s := e.tr.begin(layerFS, "Open", e.tid)
	defer e.tr.end(s)
	return e.p.Open(t, path)
}

func (e env) append(t *sim.Thread, fd int, data []byte) error {
	s := e.tr.begin(layerFS, "Append", e.tid)
	defer e.tr.end(s)
	return e.p.Append(t, fd, data)
}

func (e env) fsync(t *sim.Thread, fd int) error {
	s := e.tr.begin(layerFS, "Fsync", e.tid)
	defer e.tr.end(s)
	return e.p.Fsync(t, fd)
}

func (e env) readAt(t *sim.Thread, fd int, off uint64, buf []byte) (uint64, error) {
	s := e.tr.begin(layerFS, "ReadAt", e.tid)
	defer e.tr.end(s)
	return e.p.ReadAt(t, fd, off, buf)
}

func (e env) close(t *sim.Thread, fd int) error {
	s := e.tr.begin(layerFS, "Close", e.tid)
	defer e.tr.end(s)
	return e.p.Close(t, fd)
}

func (e env) unlink(t *sim.Thread, path string) error {
	s := e.tr.begin(layerFS, "Unlink", e.tid)
	defer e.tr.end(s)
	return e.p.Unlink(t, path)
}

func (e env) fallocate(t *sim.Thread, fd int, n uint64) error {
	s := e.tr.begin(layerFS, "Fallocate", e.tid)
	defer e.tr.end(s)
	return e.p.Fallocate(t, fd, 0, n)
}

func (e env) mmap(t *sim.Thread, c *cpu.Core, fd int, n uint64, perm mem.Perm, flags mm.MapFlags) (mem.VirtAddr, error) {
	s := e.tr.begin(layerMM, "Mmap", e.tid)
	defer e.tr.end(s)
	return e.p.Mmap(t, c, fd, 0, n, perm, flags)
}

func (e env) munmap(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, n uint64) error {
	s := e.tr.begin(layerMM, "Munmap", e.tid)
	defer e.tr.end(s)
	return e.p.Munmap(t, c, va, n)
}

func (e env) msync(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, n uint64) error {
	s := e.tr.begin(layerMM, "Msync", e.tid)
	defer e.tr.end(s)
	return e.p.Msync(t, c, va, n)
}

func (e env) daxvmMmap(t *sim.Thread, c *cpu.Core, fd int, n uint64, perm mem.Perm, flags core.Flags) (mem.VirtAddr, error) {
	s := e.tr.begin(layerCore, "DaxvmMmap", e.tid)
	defer e.tr.end(s)
	return e.p.DaxvmMmap(t, c, fd, 0, n, perm, flags)
}

func (e env) daxvmMunmap(t *sim.Thread, c *cpu.Core, va mem.VirtAddr) error {
	s := e.tr.begin(layerCore, "DaxvmMunmap", e.tid)
	defer e.tr.end(s)
	return e.p.DaxvmMunmap(t, c, va)
}

func (e env) access(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, n uint64, kind kernel.AccessKind) error {
	s := e.tr.begin(layerCPU, "AccessMapped", e.tid)
	defer e.tr.end(s)
	return e.p.AccessMapped(t, c, va, n, kind)
}

// boot is kernel.Boot as a boot-layer call.
func boot(tr *tracer, cfg kernel.Config) *kernel.Kernel {
	s := tr.begin(layerBoot, "Boot", mainTID)
	defer tr.end(s)
	return kernel.Boot(cfg)
}

// run is Kernel.Run as a sim-layer call.
func run(tr *tracer, k *kernel.Kernel) uint64 {
	s := tr.begin(layerSim, "Run", mainTID)
	defer tr.end(s)
	return k.Run()
}

// setup is Kernel.Setup as a sim-layer call; fn runs on the setup thread.
func setup(tr *tracer, k *kernel.Kernel, fn func(t *sim.Thread)) {
	s := tr.begin(layerSim, "Setup", mainTID)
	defer tr.end(s)
	k.Setup(func(t *sim.Thread) {
		tr.enterThread()
		fn(t)
	})
}

// barrier parks simulated threads until n have arrived; the last one to
// arrive runs onLast before waking the rest at its own clock. It charges
// no cycles.
type barrier struct {
	eng     *sim.Engine
	n       int
	waiters []*sim.Thread
}

func (b *barrier) wait(t *sim.Thread, onLast func()) {
	if len(b.waiters)+1 < b.n {
		b.waiters = append(b.waiters, t)
		t.Block("barrier")
		return
	}
	onLast()
	for _, w := range b.waiters {
		b.eng.Wake(w, t.Now())
	}
	b.waiters = b.waiters[:0]
}

// --- host memory ---------------------------------------------------------

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the cumulative count of heap bytes allocated.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// isolate frees everything earlier work left on the heap, returns it to
// the OS, and resets the kernel's peak-RSS mark, so the next set-up's
// peak is its own. base is the goroutine count before that work started:
// a finished engine's daemon threads unwind on their own goroutines after
// Run returns, and collecting before they have exited would keep their
// kernel, and its device, alive into the next set-up.
func isolate(base int) {
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	debug.FreeOSMemory()
	// "5" resets VmHWM to the current RSS (Linux >= 4.0). Where that is
	// not allowed the peak covers the whole process, which only over-reports.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the process's peak resident set size (VmHWM) in bytes, or
// 0 where /proc does not report it.
func peakRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
