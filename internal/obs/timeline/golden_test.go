package timeline

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"daxvm/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildGoldenTimeline books a small fixed scenario through the public
// surface: two segments, a counter, a histogram, and attribution under
// two roots, exercising every CSV series shape (cycles, counter,
// hist .count/.p50/.p99, attr.*).
func buildGoldenTimeline() *Timeline {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	h := reg.Histogram("test.lat")
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 16})

	tl.StartSegment("alpha")
	cyc.Book(0, obs.InternPath("app.work"), 7)
	cyc.Book(0, obs.InternPath("setup.mkfs"), 3)
	ops = 2
	h.Observe(100)
	h.Observe(400)
	tl.Sample(16)
	cyc.Book(1, obs.InternPath("app.work"), 5)
	ops = 3
	tl.FlushRun("run-a", 30)

	tl.StartSegment("beta")
	cyc.Book(0, obs.InternPath("app.other"), 11)
	tl.FlushRun("run-b", 16)
	return tl
}

// TestWriteCSVGolden pins the exact CSV bytes — header, column order,
// row order, number formatting — against a checked-in golden file, so
// any accidental change to the export format (a tool-breaking event for
// downstream plotting scripts) shows up as a diff. Regenerate with
// `go test ./internal/obs/timeline -run Golden -update-golden`.
func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, buildGoldenTimeline().Export()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "write_csv.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("CSV diverges from golden at line %d:\n got:  %s\n want: %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("CSV length differs from golden: %d vs %d bytes", buf.Len(), len(want))
	}
}

// TestWriteCSVDeterministic renders the same timeline twice and demands
// byte-identical output: the writer iterates maps only through sorted
// keys, so two exports of one run never differ.
func TestWriteCSVDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, buildGoldenTimeline().Export()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if first, second := render(), render(); !bytes.Equal(first, second) {
		t.Fatal("two renders of the same scenario differ")
	}
}
