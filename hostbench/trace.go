package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// layer is one simulator layer the benchmark calls into.
type layer uint8

const (
	layerBoot layer = iota // kernel.Boot
	layerFS                // Create/Open/Append/Fsync/ReadAt/Close/Unlink
	layerMM                // Mmap/Munmap/Msync
	layerCore              // DaxvmMmap/DaxvmMunmap
	layerCPU               // AccessMapped: translation plus the pmem channel
	layerSim               // Kernel.Run/Setup outside every wrapped call
	layerObs               // snapshot and export calls after a run
	numLayers
)

var layerNames = [numLayers]string{"boot", "fs", "mm", "core", "cpu", "sim", "obs"}

// harnessLabel marks the benchmark's own code on the main goroutine,
// outside every wrapped call.
const harnessLabel = "harness"

// mainTID is the thread id of spans opened on the main goroutine.
const mainTID = -1

// spanRec is one wrapped call: host nanoseconds since the tracer's base,
// the enclosing Run/Setup span (-1 at top level) and the simulated thread
// that made it.
type spanRec struct {
	start, end int64
	parent     int32
	tid        int32
	layer      layer
	name       string
}

// tracer records a span around every call the benchmark makes into a
// layer and sets the layer as the goroutine's pprof label for the call's
// duration, so CPU samples land on the layer whose code runs even when a
// call parks and another simulated thread's goroutine takes over. A nil
// tracer records nothing: the untraced run pays one nil check per call.
//
// Only one goroutine touches the tracer at a time: the simulator hands a
// single token between its thread goroutines, and the main goroutine is
// blocked in Run/Setup while they hold it.
type tracer struct {
	base  time.Time
	spans []spanRec
	open  int32 // the open Run/Setup span, -1 when none
	ctx   [numLayers]context.Context
	outer context.Context
}

func newTracer() *tracer {
	tr := &tracer{base: time.Now(), open: -1}
	for l := range tr.ctx {
		tr.ctx[l] = pprof.WithLabels(context.Background(), pprof.Labels("layer", layerNames[l]))
	}
	tr.outer = pprof.WithLabels(context.Background(), pprof.Labels("layer", harnessLabel))
	pprof.SetGoroutineLabels(tr.outer)
	return tr
}

// begin opens a span for a call into layer l made by simulated thread tid
// (mainTID for the main goroutine) and returns its handle for end.
func (tr *tracer) begin(l layer, name string, tid int) int32 {
	if tr == nil {
		return -1
	}
	pprof.SetGoroutineLabels(tr.ctx[l])
	parent := tr.open
	if l == layerSim || tid == mainTID {
		parent = -1
	}
	i := int32(len(tr.spans))
	tr.spans = append(tr.spans, spanRec{
		start:  int64(time.Since(tr.base)),
		parent: parent,
		tid:    int32(tid),
		layer:  l,
		name:   name,
	})
	if l == layerSim {
		tr.open = i
	}
	return i
}

// end closes span i and restores the caller's label: sim on a simulated
// thread, harness on the main goroutine.
func (tr *tracer) end(i int32) {
	if tr == nil {
		return
	}
	s := &tr.spans[i]
	s.end = int64(time.Since(tr.base))
	if s.layer == layerSim {
		tr.open = -1
	}
	if s.tid == mainTID {
		pprof.SetGoroutineLabels(tr.outer)
	} else {
		pprof.SetGoroutineLabels(tr.ctx[layerSim])
	}
}

// enterThread labels a simulated thread's goroutine as sim. Call it first
// in every thread body: a goroutine inherits the labels of whichever
// goroutine started it, which may have been inside a wrapped call.
func (tr *tracer) enterThread() {
	if tr != nil {
		pprof.SetGoroutineLabels(tr.ctx[layerSim])
	}
}

// layerStats aggregates the spans of one layer.
type layerStats struct {
	calls    int
	wallNS   int64   // self time: duration minus the union of child spans
	p50, p99 float64 // per-call self time, microseconds
}

// aggregate folds the spans into per-layer statistics. A span's self time
// is its duration minus the part of it covered by its children. Only
// Run/Setup spans have children, and children of one parent overlap in
// host time when a call parks while another thread's call runs, so a
// parked call's wall time also covers the sim code that runs meanwhile.
func (tr *tracer) aggregate() [numLayers]layerStats {
	type cover struct {
		end  int64 // furthest child end seen so far
		self int64 // parent duration not yet covered
	}
	covers := make(map[int32]*cover)
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.layer == layerSim {
			covers[int32(i)] = &cover{end: s.start, self: s.end - s.start}
		}
	}
	// Children appear in start order, so one sweep yields the union.
	for i := range tr.spans {
		s := &tr.spans[i]
		c := covers[s.parent]
		if s.parent < 0 || c == nil {
			continue
		}
		from := s.start
		if c.end > from {
			from = c.end
		}
		if s.end > from {
			c.self -= s.end - from
			c.end = s.end
		}
	}
	var out [numLayers]layerStats
	durs := make([][]int64, numLayers)
	for i := range tr.spans {
		s := &tr.spans[i]
		self := s.end - s.start
		if c := covers[int32(i)]; c != nil {
			self = c.self
		}
		st := &out[s.layer]
		st.calls++
		st.wallNS += self
		durs[s.layer] = append(durs[s.layer], self)
	}
	for l := range out {
		out[l].p50 = quantileUS(durs[l], 0.50)
		out[l].p99 = quantileUS(durs[l], 0.99)
	}
	return out
}

// quantileUS is the nearest-rank q-quantile of ds in microseconds.
func quantileUS(ds []int64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(q*float64(len(ds))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(ds) {
		k = len(ds) - 1
	}
	return float64(ds[k]) / 1e3
}

// maxWrittenSpans bounds the span file: a few seconds of repeat-rw make
// millions of calls. Every span is kept in memory and aggregated; the
// file holds the first ones.
const maxWrittenSpans = 1 << 18

// writeSpans writes the spans as tab-separated text: id, parent, thread,
// layer, name, start and end in host nanoseconds since the traced phase
// began.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans := tr.spans
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	fmt.Fprintf(w, "# %d of %d spans\n", len(spans), len(tr.spans))
	fmt.Fprintln(w, "id\tparent\ttid\tlayer\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", i, s.parent, s.tid, layerNames[s.layer], s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileHz is the CPU sampling rate of the traced run: the default
// 100 Hz gives too few samples per layer in a few seconds.
const profileHz = 500

// startProfile starts a labelled CPU profile into buf. Setting the rate
// before StartCPUProfile is the documented way to raise it; the runtime
// then warns once on stderr that the rate is already set.
func startProfile(buf *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}
