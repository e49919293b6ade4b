package bench

import (
	"bytes"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// quickArtifact runs one experiment in quick mode with a fresh
// observability stack and returns the artifact and its serialized bytes,
// with the git SHA pinned. In-process artifacts carry no host block (only
// the CLI runner sets it), so byte equality is exactly the "identical up
// to the host block" bar the perf gate's baselines rest on.
func quickArtifact(t *testing.T, id string) (*Artifact, []byte) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	o := obs.New(0)
	tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
	sp := span.New(3)
	opts := Options{Quick: true, Obs: o, Timeline: tl, Spans: sp}
	res := e.Run(opts)
	snap := o.Reg.Snapshot()
	cycles := o.Cycles.Snapshot()
	art := NewArtifact(res, opts, &snap, &cycles)
	// Pin provenance: the invariant under test is the payload, and the
	// env-sensitive git SHA would make the assertion flaky in CI.
	art.GitSHA = "test"
	var buf bytes.Buffer
	if err := art.WriteArtifact(&buf); err != nil {
		t.Fatalf("serialize artifact: %v", err)
	}
	return art, buf.Bytes()
}

// requireSameArtifact fails at the first divergent line of a and b.
func requireSameArtifact(t *testing.T, label string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("%s: artifacts diverge at line %d:\n run 1: %s\n run 2: %s", label, i+1, al[i], bl[i])
		}
	}
	t.Fatalf("%s: artifacts differ in length: %d vs %d bytes", label, len(a), len(b))
}

// TestRunDeterminism runs the ftcost experiment twice in one process and
// asserts the two serialized artifacts are byte-identical. A simulator
// that produces different artifacts across same-binary runs — map-order
// leaks, wall-clock contamination, scheduler races — would render every
// baseline diff meaningless.
func TestRunDeterminism(t *testing.T) {
	art, first := quickArtifact(t, "ftcost")
	// The timeline rides the same determinism contract as everything
	// else in the artifact: the sampler runs on virtual time, so its
	// interval boundaries and deltas are part of the payload.
	if len(art.Timeline) == 0 {
		t.Fatal("artifact has no timeline section")
	}
	var intervals int
	for _, ex := range art.Timeline {
		intervals += len(ex.Intervals)
	}
	if intervals < 50 {
		t.Fatalf("timeline has %d intervals, want >= 50", intervals)
	}
	// The span sections ride the same contract: critical-path rows and
	// exemplar trees (including which ops the reservoir kept) are part
	// of the byte-compared payload below.
	if len(art.CriticalPath) == 0 {
		t.Fatal("artifact has no critical_path section")
	}
	if len(art.Exemplars) == 0 {
		t.Fatal("artifact has no exemplars section")
	}
	_, second := quickArtifact(t, "ftcost")
	requireSameArtifact(t, "ftcost", first, second)
}

// TestArtifactIndependentOfEarlierRuns pins that an experiment's artifact
// does not depend on what ran before it in the same process. Between the
// two runs of each experiment another experiment runs, so process-wide
// state it leaves behind — interned attribution-path ids, whose order
// follows first use, and recycled PMem pages — must not reach the output.
func TestArtifactIndependentOfEarlierRuns(t *testing.T) {
	ids := []string{"storage", "numa", "table2", "fig7"}
	for i, id := range ids {
		id, other := id, ids[(i+1)%len(ids)]
		t.Run(id, func(t *testing.T) {
			_, first := quickArtifact(t, id)
			quickArtifact(t, other)
			_, second := quickArtifact(t, id)
			requireSameArtifact(t, id+" after "+other, first, second)
		})
	}
}
