// Command hostbench measures the simulator's host cost: wall time, memory
// and allocation to regenerate an experiment, end to end and per layer.
// It drives the simulator from one process through the kernel API
// (kernel.Boot, Kernel.Setup/Run and the Proc system calls) with the same
// obs hub, timeline and span collector daxbench attaches. Only virtual
// time is deterministic, so every metric is host time or host memory;
// the simulated results are checked, not measured.
//
// Usage, from the repository root:
//
//	python3 hostbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run measures an untraced and a
// traced phase of seconds/2 each and reports the per-layer metrics, and
// writes the traced phase's spans to .bench_build/spans-<workload>.tsv.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// spansDir receives the traced run's spans.
const spansDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: boot-append, serve-mixed or repeat-rw")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "host seconds of measured work")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: hostbench --workload boot-append|serve-mixed|repeat-rw --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	in := generate(*name, *seed, full)
	var res result
	var digests []string
	if *trace == 1 {
		// Sample allocations finely enough to attribute small layers;
		// the rate must be set before the allocations it should see.
		runtime.MemProfileRate = memProfileRate
		var err error
		res, digests, err = traced(w, in, full, *seconds, *name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
	} else {
		res, digests = untraced(w, in, full, *seconds)
		if res.Metrics["peak_rss_mb"].Value == 0 {
			fmt.Fprintln(os.Stderr, "hostbench: peak RSS unavailable: /proc/self/status has no VmHWM")
			os.Exit(1)
		}
	}
	prov := provenance(*seed)
	line, err := json.Marshal(map[string]any{"workload": *name, "digest": digests, "provenance": prov})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// untraced runs one phase with every set-up repetition and reports the
// end-to-end metrics.
func untraced(w workload, in inputs, sz sizes, seconds float64) (result, []string) {
	isolate(runtime.NumGoroutine())
	ph := w(in, sz, nil, seconds, sz.setupReps)
	m := map[string]metric{
		"ops_per_s":   {float64(ph.ops) / ph.measured.Seconds(), "1/s"},
		"setup_s":     {median(ph.setups), "s"},
		"peak_rss_mb": {float64(ph.peakRSS) / (1 << 20), "MB"},
		"alloc_mb":    {float64(ph.allocBytes) / (1 << 20) / (float64(ph.ops) / 1000), "MB/kop"},
	}
	return result{Correct: ph.failed == 0, Attempted: ph.ops, Failed: ph.failed, Metrics: m}, []string{ph.digest}
}

// tracedRun is what a traced invocation measured.
type tracedRun struct {
	untraced, traced phase
	layers           [numLayers]layerStats
	cpu              profileGroups
	alloc            map[string]int64 // heap bytes allocated per layer
	gc0, gc1         gcStats
}

// measureTraced runs an untraced and then a traced phase of the given
// length, profiling the traced one, and writes its spans to spansPath.
func measureTraced(w workload, in inputs, sz sizes, seconds float64, spansPath string) (tracedRun, error) {
	var r tracedRun
	base := runtime.NumGoroutine()
	r.untraced = w(in, sz, nil, seconds, 1)
	isolate(base)
	allocs0, err := allocsProfile()
	if err != nil {
		return r, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		return r, err
	}
	r.gc0 = readGC()
	r.traced = w(in, sz, tr, seconds, 1)
	r.gc1 = readGC()
	pprof.StopCPUProfile()
	allocs1, err := allocsProfile()
	if err != nil {
		return r, err
	}
	cpuProf, err := decodeProfile(prof.Bytes())
	if err != nil {
		return r, err
	}
	if err := tr.writeSpans(spansPath); err != nil {
		return r, err
	}
	r.layers = tr.aggregate()
	r.cpu = groupCPU(cpuProf)
	before := allocByLayer(allocs0)
	r.alloc = allocByLayer(allocs1)
	for l := range r.alloc {
		r.alloc[l] -= before[l]
	}
	return r, nil
}

// traced runs an untraced and a traced phase of seconds/2 each, checks
// that their digests agree, and reports the per-layer metrics.
func traced(w workload, in inputs, sz sizes, seconds float64, name string) (result, []string, error) {
	r, err := measureTraced(w, in, sz, seconds/2, spansDir+"/spans-"+name+".tsv")
	if err != nil {
		return result{}, nil, err
	}
	u, t := r.untraced, r.traced
	failed := u.failed + t.failed
	if u.digest != t.digest {
		failed++
	}
	m := layerMetrics(r.layers, r.cpu, r.alloc)
	m["runtime.gc_cycles"] = metric{float64(r.gc1.cycles - r.gc0.cycles), "count"}
	m["runtime.gc_cpu_s"] = metric{r.gc1.cpuS - r.gc0.cpuS, "s"}
	m["sim.events"] = metric{float64(t.prefixEvts), "count"}
	for _, n := range workCounts {
		m[n] = metric{float64(t.counts[n]), countUnit(n)}
	}
	m["sim.ns_per_event"] = metric{float64(u.measured.Nanoseconds()) / float64(u.events), "ns"}
	opsU := float64(u.ops) / u.measured.Seconds()
	opsT := float64(t.ops) / t.measured.Seconds()
	m["trace_overhead_pct"] = metric{(opsU - opsT) / opsU * 100, "%"}
	res := result{Correct: failed == 0, Attempted: u.ops + t.ops, Failed: failed, Metrics: m}
	return res, []string{u.digest, t.digest}, nil
}

func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "bytes_read"), strings.HasSuffix(name, "bytes_written"):
		return "bytes"
	case strings.HasSuffix(name, "cycles"):
		return "cycles"
	}
	return "count"
}

// memProfileRate is the allocation sampling interval of a traced run.
const memProfileRate = 16 << 10

// allocsProfile reads the allocation profile as of a fresh GC (the
// profile only publishes allocations up to the last completed cycle).
func allocsProfile() (*pbProfile, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return decodeProfile(b.Bytes())
}

// layerMetrics turns span aggregates, the grouped CPU profile and the
// allocated bytes per layer into the per-layer metrics.
func layerMetrics(ls [numLayers]layerStats, g profileGroups, alloc map[string]int64) map[string]metric {
	m := map[string]metric{}
	for l, st := range ls {
		n := layerNames[l]
		wall := float64(st.wallNS) / 1e6
		busy := float64(g.byLabel[n]) / 1e6
		m[n+".calls"] = metric{float64(st.calls), "count"}
		m[n+".wall_ms"] = metric{wall, "ms"}
		m[n+".busy_ms"] = metric{busy, "ms"}
		m[n+".parked_ms"] = metric{wall - busy, "ms"}
		m[n+".p50_us"] = metric{st.p50, "us"}
		m[n+".p99_us"] = metric{st.p99, "us"}
		m[n+".alloc_mb"] = metric{float64(alloc[n]) / (1 << 20), "MB"}
	}
	m["harness.busy_ms"] = metric{float64(g.byLabel[harnessLabel]) / 1e6, "ms"}
	for _, p := range append(append([]string{}, repoPkgs...), shareHarness, shareOther, shareRuntime) {
		share := 0.0
		if g.totalNS > 0 {
			share = float64(g.byPkg[p]) / float64(g.totalNS) * 100
		}
		m["cpu_share."+p] = metric{share, "%"}
	}
	return m
}

type gcStats struct {
	cycles uint64
	cpuS   float64
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return gcStats{cycles: s[0].Value.Uint64(), cpuS: s[1].Value.Float64()}
}

func median(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]).Seconds() / 2
	}
	return s[len(s)/2].Seconds()
}

// provenance identifies the host and build a result came from.
func provenance(seed int64) map[string]any {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return map[string]any{
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_sha":    sha,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
