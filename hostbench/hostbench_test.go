package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

var workloadNames = []string{"boot-append", "serve-mixed", "repeat-rw"}

func TestInputsFollowSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := generate(name, 7, tiny), generate(name, 7, tiny)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		c := generate(name, 8, tiny)
		c.payload = a.payload // compare the workload's own inputs
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestDigestRepeats runs each workload's deterministic prefix twice and
// checks that the digest, the only simulated output, repeats.
func TestDigestRepeats(t *testing.T) {
	for _, name := range workloadNames {
		in := generate(name, 3, tiny)
		a := workloads[name](in, tiny, nil, 0, tiny.setupReps)
		b := workloads[name](in, tiny, nil, 0, 1)
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: %d and %d failed ops", name, a.failed, b.failed)
		}
		if a.ops == 0 || a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: digests %q and %q over %d ops", name, a.digest, b.digest, a.ops)
		}
		other := workloads[name](generate(name, 4, tiny), tiny, nil, 0, 1)
		if other.digest == a.digest {
			t.Errorf("%s: seeds 3 and 4 gave the same digest", name)
		}
	}
}

// TestTracedRunAccounts checks, on a tiny instance of each workload, that
// the traced phase reproduces the untraced digest, that every layer the
// workload calls into records spans, and that the layer labels cover the
// CPU profile: every sample is labelled with a layer (or the harness) or
// has no repo frame at all, which puts it in cpu_share.runtime.
func TestTracedRunAccounts(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a second of work per workload")
	}
	used := map[string][]layer{
		"boot-append": {layerBoot, layerFS, layerSim, layerObs},
		"serve-mixed": {layerBoot, layerFS, layerMM, layerCore, layerCPU, layerSim, layerObs},
		"repeat-rw":   {layerBoot, layerFS, layerMM, layerCore, layerCPU, layerSim, layerObs},
	}
	for _, name := range workloadNames {
		r, err := measureTraced(workloads[name], generate(name, 5, tiny), tiny, 1, filepath.Join(t.TempDir(), "spans.tsv"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.untraced.digest != r.traced.digest {
			t.Errorf("%s: untraced digest %s, traced %s", name, r.untraced.digest, r.traced.digest)
		}
		for _, l := range used[name] {
			if r.layers[l].calls == 0 {
				t.Errorf("%s: no %s spans", name, layerNames[l])
			}
		}
		g := r.cpu
		if g.totalNS == 0 {
			t.Fatalf("%s: empty CPU profile", name)
		}
		var labelled int64
		for _, n := range append(layerNames[:], harnessLabel) {
			labelled += g.byLabel[n]
		}
		if labelled+g.byLabel[""] != g.totalNS {
			t.Errorf("%s: samples carry unknown labels: %v", name, g.byLabel)
		}
		if g.unlabelledRepoNS != 0 {
			t.Errorf("%s: %d ns of repo code ran on unlabelled goroutines", name, g.unlabelledRepoNS)
		}
		if labelled+g.byPkg[shareRuntime] < g.totalNS {
			t.Errorf("%s: layers %d ns + runtime %d ns < total %d ns", name, labelled, g.byPkg[shareRuntime], g.totalNS)
		}
	}
}

func TestSharePkg(t *testing.T) {
	for fn, want := range map[string]string{
		"daxvm/internal/pmem.New":               "pmem",
		"daxvm/internal/fs/ext4.(*FS).ReadAt":   "fs",
		"daxvm/internal/tlb.(*TLB).Invalidate":  "tlb",
		"daxvm/internal/bench.runFig4":          shareOther,
		"main.serve":                            shareHarness,
		"runtime.memclrNoHeapPointers":          "",
		"daxvm/internal/obs/span.(*C).Observe":  "obs",
		"daxvm/internal/kernel.(*Proc).Open.f1": "kernel",
	} {
		if got := sharePkg(fn); got != want {
			t.Errorf("sharePkg(%q) = %q, want %q", fn, got, want)
		}
	}
}
