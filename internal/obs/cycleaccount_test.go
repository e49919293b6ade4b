package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCycleAccountBooking(t *testing.T) {
	a := NewCycleAccount()
	a.Book(0, InternPath("app.syscall.write"), 100)
	a.Book(0, InternPath("app.syscall.write.ntstore"), 50)
	a.Book(1, InternPath("app.syscall.write.ntstore"), 25)
	a.Book(2, InternPath("journal.commit"), 10)

	if got := a.Total(); got != 185 {
		t.Fatalf("total = %d, want 185", got)
	}
	s := a.Snapshot()
	if s.Total != 185 {
		t.Fatalf("snapshot total = %d", s.Total)
	}
	nt := s.Leaves["app.syscall.write.ntstore"]
	if nt.Cycles != 75 || nt.Count != 2 {
		t.Fatalf("ntstore leaf: %+v", nt)
	}
	if nt.ByCore[0] != 50 || nt.ByCore[1] != 25 {
		t.Fatalf("ntstore by_core: %+v", nt.ByCore)
	}
	if got := s.TotalOf("app.syscall.write"); got != 175 {
		t.Fatalf("TotalOf(app.syscall.write) = %d, want 175", got)
	}
	if got := s.TotalOf("app"); got != 175 {
		t.Fatalf("TotalOf(app) = %d, want 175", got)
	}
	if got := s.TotalOf("jour"); got != 0 {
		t.Fatalf("TotalOf must not match partial segments: %d", got)
	}
}

func TestCycleSnapshotDelta(t *testing.T) {
	a := NewCycleAccount()
	a.Book(0, InternPath("x.y"), 100)
	s1 := a.Snapshot()
	a.Book(0, InternPath("x.y"), 40)
	a.Book(1, InternPath("x.z"), 7)
	d := a.Snapshot().Delta(s1)
	if d.Total != 47 {
		t.Fatalf("delta total = %d", d.Total)
	}
	if d.Leaves["x.y"].Cycles != 40 || d.Leaves["x.y"].Count != 1 {
		t.Fatalf("x.y delta: %+v", d.Leaves["x.y"])
	}
	if d.Leaves["x.z"].Cycles != 7 {
		t.Fatalf("x.z delta: %+v", d.Leaves["x.z"])
	}
	if d.Leaves["x.y"].ByCore[0] != 40 {
		t.Fatalf("x.y by_core delta: %+v", d.Leaves["x.y"].ByCore)
	}
}

func TestCycleSnapshotWriteFolded(t *testing.T) {
	a := NewCycleAccount()
	a.Book(0, InternPath("app.access.walk.pte_miss_pmem"), 900)
	a.Book(0, InternPath("app.access"), 100)
	var buf bytes.Buffer
	if err := a.Snapshot().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "app;access 100\napp;access;walk;pte_miss_pmem 900\n"
	if buf.String() != want {
		t.Fatalf("folded:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestCycleSnapshotWriteTable(t *testing.T) {
	a := NewCycleAccount()
	a.Book(0, InternPath("app.syscall.write"), 100)
	a.Book(0, InternPath("app.syscall.write.ntstore"), 300)
	a.Book(0, InternPath("journal.commit"), 50)
	var buf bytes.Buffer
	a.Snapshot().WriteTable(&buf, 0)
	out := buf.String()
	// "app" rolls up to 400 total with 0 self; the write node keeps 100 self.
	if !strings.Contains(out, "app") || !strings.Contains(out, "400") {
		t.Fatalf("table missing rollup:\n%s", out)
	}
	// Nodes: app, app.syscall, app.syscall.write, app.syscall.write.ntstore,
	// journal, journal.commit — plus the header line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+6 {
		t.Fatalf("unexpected table rows (%d):\n%s", len(lines)-1, out)
	}
	// Rows must be sorted by total descending: app (400) before journal (50).
	if strings.Index(out, " app\n") > strings.Index(out, " journal\n") {
		t.Fatalf("rows not sorted by total:\n%s", out)
	}
}

func TestCycleAccountNilSafety(t *testing.T) {
	var a *CycleAccount
	a.Book(0, InternPath("x"), 1) // must not panic
	if a.Total() != 0 {
		t.Fatal("nil account not inert")
	}
	s := a.Snapshot()
	if s.Total != 0 || len(s.Leaves) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

// Path ids follow first-intern order, which depends on everything the
// process ran before; no view of an account may depend on them. Two
// accounts fed the same charges in different orders, with the paths
// interned in reverse order first, must read identically.
func TestPathIDsNeverReachOutput(t *testing.T) {
	names := []string{"idz.b.c", "idz.a", "ida.x.y", "ida.x", "idm"}
	for i := len(names) - 1; i >= 0; i-- {
		InternPath(names[i])
	}
	type charge struct {
		core   int
		path   string
		cycles uint64
	}
	var charges []charge
	for i, name := range names {
		charges = append(charges, charge{i % 3, name, uint64(10 * (i + 1))}, charge{2, name, 0}, charge{0, name, 7})
	}
	fwd, rev := NewCycleAccount(), NewCycleAccount()
	for i := range charges {
		c, r := charges[i], charges[len(charges)-1-i]
		fwd.Book(c.core, InternPath(c.path), c.cycles)
		rev.Book(r.core, InternPath(r.path), r.cycles)
	}

	if a, b := fwd.Snapshot(), rev.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", a, b)
	}
	var fa, fb, ta, tb bytes.Buffer
	if err := fwd.Snapshot().WriteFolded(&fa); err != nil {
		t.Fatal(err)
	}
	if err := rev.Snapshot().WriteFolded(&fb); err != nil {
		t.Fatal(err)
	}
	if fa.String() != fb.String() {
		t.Fatalf("folded profiles differ:\n%s\n%s", fa.String(), fb.String())
	}
	fwd.Snapshot().WriteTable(&ta, 0)
	rev.Snapshot().WriteTable(&tb, 0)
	if ta.String() != tb.String() {
		t.Fatalf("tables differ:\n%s\n%s", ta.String(), tb.String())
	}
	if a, b := rootTotals(fwd), rootTotals(rev); !reflect.DeepEqual(a, b) {
		t.Fatalf("root totals differ: %v vs %v", a, b)
	}
}

// rootTotals reads an account's per-root totals keyed by root name.
func rootTotals(a *CycleAccount) map[string]uint64 {
	_, roots := a.ReadRoots(nil)
	out := map[string]uint64{}
	for i, v := range roots {
		out[a.RootName(i)] = v
	}
	return out
}

// A core that booked 0 cycles on a leaf still appears in its ByCore.
func TestZeroCycleChargeKeepsCore(t *testing.T) {
	a := NewCycleAccount()
	a.Book(0, InternPath("app.x"), 5)
	a.Book(3, InternPath("app.x"), 0)
	got := a.Snapshot().Leaves["app.x"].ByCore
	if want := map[int]uint64{0: 5, 3: 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ByCore = %v, want %v", got, want)
	}
}

// BenchmarkCycleAccountCharge times one booking, rotating over paths
// under several roots and two cores.
func BenchmarkCycleAccountCharge(b *testing.B) {
	var paths [8]Path
	for i, p := range []string{"app.syscall.write", "app.syscall.write.ntstore", "app.access", "app.access.walk.pte_hit",
		"fault.minor", "app.syscall.read.copy", "daemon.prezero.zero", "app.access.fault.wp"} {
		paths[i] = InternPath(p)
	}
	a := NewCycleAccount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Book(i%2, paths[i%len(paths)], 10)
	}
}
