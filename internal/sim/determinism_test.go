package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// step is one operation of a generated thread program.
type step struct {
	kind   int
	cycles uint64
	label  string
	target int // AddRemote target thread
}

const (
	stCharge = iota
	stChargeAs
	stRemote
	stYield
	stSleepUntil
	stMutex
	stSpin
	stRead
	stWrite
	stSpan
	numStepKinds
)

var stepLabels = []string{"walk", "bw_stall", "ipi_send", "copy"}

// genPrograms builds a seeded random program per thread. Programs are
// plain data, so two runs execute the identical op sequence.
func genPrograms(seed int64, nthreads, nsteps int) [][]step {
	rng := rand.New(rand.NewSource(seed))
	progs := make([][]step, nthreads)
	for i := range progs {
		for j := 0; j < nsteps; j++ {
			s := step{kind: rng.Intn(numStepKinds), cycles: uint64(1 + rng.Intn(4000))}
			switch s.kind {
			case stChargeAs, stSpan:
				s.label = stepLabels[rng.Intn(len(stepLabels))]
			case stRemote:
				s.target = rng.Intn(nthreads)
			}
			progs[i] = append(progs[i], s)
		}
	}
	return progs
}

// runRecord is everything observable about one run.
type runRecord struct {
	dispatch []string // (thread, step, clock) as each step completes
	charged  uint64
	events   uint64
	maxClock uint64
	account  obs.CycleSnapshot
	trace    []obs.Event
	spans    string // span export, JSON
}

// runPrograms runs progs as nthreads threads spread over ncores cores of
// one engine wired like a kernel's: cycle account as charge sink, span
// collector as observer and lock-contention tap, and a tracer fed from
// the threads. The records are read after Run returns.
func runPrograms(t *testing.T, progs [][]step, ncores int) runRecord {
	t.Helper()
	var rec runRecord
	e := sim.New()
	acc := obs.NewCycleAccount()
	sp := span.New(4)
	tr := obs.NewTracer(1 << 12)
	e.SetChargeSink(acc.Book)
	e.SetChargeObserver(sp.Observe)
	sp.StartSegment("prog")

	contended := func(th *sim.Thread, kind string, waitStart, blocked uint64) {
		sp.Wait(th, span.WaitMmapSem, blocked)
		tr.Emit(obs.EvLockContention, th.Core, waitStart, blocked, kind, 0)
	}
	mu := sim.NewMutex(2200)
	mu.OnContended = contended
	spin := &sim.SpinLock{OnContended: contended}
	rw := sim.NewRWSem(2200)
	rw.OnContended = contended

	ths := make([]*sim.Thread, len(progs))
	for i, prog := range progs {
		prog := prog
		ths[i] = e.Go(fmt.Sprintf("t%d", i), i%ncores, uint64(i)*37, func(th *sim.Thread) {
			th.PushAttr("app")
			defer th.PopAttr()
			for j, s := range prog {
				switch s.kind {
				case stCharge:
					th.Charge(s.cycles)
				case stChargeAs:
					th.ChargeAs(s.label, s.cycles)
				case stRemote:
					ths[s.target].AddRemote("ipi.remote", s.cycles)
				case stYield:
					th.Yield()
				case stSleepUntil:
					th.SleepUntil(th.Now() + s.cycles)
				case stMutex:
					mu.Lock(th, 80)
					th.Charge(s.cycles)
					mu.Unlock(th, 40)
				case stSpin:
					spin.Lock(th, 80)
					th.Charge(s.cycles)
					spin.Unlock(th, 40)
				case stRead:
					rw.RLock(th, 80)
					th.ChargeAs("read", s.cycles)
					rw.RUnlock(th, 40)
				case stWrite:
					rw.Lock(th, 80)
					th.ChargeAs("write", s.cycles)
					rw.Unlock(th, 40)
				case stSpan:
					sp.Begin(th, "op."+s.label)
					th.PushAttr(s.label)
					th.Charge(s.cycles)
					th.Yield()
					th.ChargeAs("bw_stall", s.cycles/2)
					th.PopAttr()
					sp.End(th)
				}
				tr.Emit("step", th.Core, th.Now(), 0, th.Name, uint64(s.kind))
				rec.dispatch = append(rec.dispatch, fmt.Sprintf("%s/%d@%d", th.Name, j, th.Now()))
			}
		})
	}
	rec.maxClock = e.Run()
	rec.charged = e.TotalCharged()
	rec.events = e.Events()
	rec.account = acc.Snapshot()
	rec.trace = tr.Events()
	js, err := json.Marshal(sp.Export())
	if err != nil {
		t.Fatal(err)
	}
	rec.spans = string(js)

	if acc.Total() != rec.charged || sp.ObservedCycles() != rec.charged {
		t.Fatalf("account %d, spans %d, engine %d: observers lost cycles", acc.Total(), sp.ObservedCycles(), rec.charged)
	}
	return rec
}

// TestSeededRunsIdentical is the engine's determinism property: a seeded
// random program of charges, labelled charges, remote bookings, yields,
// sleeps, sim locks and spans, run twice, gives the identical dispatch
// order, engine totals, cycle-account snapshot, trace and span export.
// A different seed must change the dispatch order, so the comparison
// cannot pass vacuously.
func TestSeededRunsIdentical(t *testing.T) {
	const nthreads, ncores, nsteps = 8, 3, 80
	var prev []string
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			progs := genPrograms(seed, nthreads, nsteps)
			a := runPrograms(t, progs, ncores)
			requireSameRun(t, a, runPrograms(t, progs, ncores), nthreads*nsteps)
			if prev != nil && firstDiff(prev, a.dispatch) < 0 {
				t.Fatal("a different seed gave the same dispatch order")
			}
			prev = a.dispatch
		})
	}
}

// TestSeededRunsAcrossCores places one seeded program set on 1, 2, 4
// and 8 cores. Every thread is its own hardware thread and its core only
// labels where its charges book, so each placement must reproduce itself,
// keep the dispatch order, engine totals and per-path cycles of the
// one-core run, and split each path's cycles over exactly the cores the
// threads sit on.
func TestSeededRunsAcrossCores(t *testing.T) {
	const nthreads, nsteps = 8, 60
	progs := genPrograms(7, nthreads, nsteps)
	ref := runPrograms(t, progs, 1)
	for _, ncores := range []int{1, 2, 4, 8} {
		ncores := ncores
		t.Run(fmt.Sprintf("cores=%d", ncores), func(t *testing.T) {
			a := runPrograms(t, progs, ncores)
			requireSameRun(t, a, runPrograms(t, progs, ncores), nthreads*nsteps)
			if i := firstDiff(ref.dispatch, a.dispatch); i >= 0 {
				t.Fatalf("dispatch differs from one core at step %d: %q vs %q", i, at(ref.dispatch, i), at(a.dispatch, i))
			}
			if a.charged != ref.charged || a.events != ref.events || a.maxClock != ref.maxClock {
				t.Fatalf("totals differ from one core: charged %d/%d, events %d/%d, maxClock %d/%d",
					a.charged, ref.charged, a.events, ref.events, a.maxClock, ref.maxClock)
			}
			if len(a.account.Leaves) != len(ref.account.Leaves) {
				t.Fatalf("%d attribution paths, one core had %d", len(a.account.Leaves), len(ref.account.Leaves))
			}
			used := make(map[int]bool)
			for path, leaf := range a.account.Leaves {
				if r := ref.account.Leaves[path]; leaf.Cycles != r.Cycles || leaf.Count != r.Count {
					t.Fatalf("%s: %d cycles / %d charges, one core had %d / %d", path, leaf.Cycles, leaf.Count, r.Cycles, r.Count)
				}
				var sum uint64
				for core, c := range leaf.ByCore {
					if core < 0 || core >= ncores {
						t.Fatalf("%s booked %d cycles on core %d of %d", path, c, core, ncores)
					}
					used[core] = true
					sum += c
				}
				if sum != leaf.Cycles {
					t.Fatalf("%s: per-core split sums to %d, want %d", path, sum, leaf.Cycles)
				}
			}
			if len(used) != ncores {
				t.Fatalf("charges booked on %d cores, threads sit on %d", len(used), ncores)
			}
		})
	}
}

// requireSameRun fails unless two runs of the same programs agree on
// every observable: dispatch order (nsteps steps in all), engine totals,
// cycle-account snapshot and table, trace and span export.
func requireSameRun(t *testing.T, a, b runRecord, nsteps int) {
	t.Helper()
	if a.charged != b.charged || a.events != b.events || a.maxClock != b.maxClock {
		t.Fatalf("totals differ: charged %d/%d, events %d/%d, maxClock %d/%d",
			a.charged, b.charged, a.events, b.events, a.maxClock, b.maxClock)
	}
	if len(a.dispatch) != nsteps {
		t.Fatalf("dispatch log has %d steps, want %d", len(a.dispatch), nsteps)
	}
	if i := firstDiff(a.dispatch, b.dispatch); i >= 0 {
		t.Fatalf("dispatch order differs at step %d: %q vs %q", i, at(a.dispatch, i), at(b.dispatch, i))
	}
	if !reflect.DeepEqual(a.account, b.account) {
		t.Fatal("cycle-account snapshots differ")
	}
	var ta, tb bytes.Buffer
	a.account.WriteTable(&ta, 0)
	b.account.WriteTable(&tb, 0)
	if ta.String() != tb.String() {
		t.Fatalf("attribution tables differ:\n%s\nvs\n%s", ta.String(), tb.String())
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatal("trace events differ")
	}
	if a.spans != b.spans {
		t.Fatalf("span exports differ:\n%s\nvs\n%s", a.spans, b.spans)
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}
