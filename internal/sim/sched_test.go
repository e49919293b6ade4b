package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"daxvm/internal/obs"
)

// --- concrete heap ---

// TestThreadHeapPopOrder pins that the concrete-typed heap pops in
// ascending (wakeAt, seq) order — seq is unique, so this is a total
// order and the exact dispatch sequence the engine depends on.
func TestThreadHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h threadHeap
	var ts []*Thread
	for i := 0; i < 500; i++ {
		th := &Thread{wakeAt: uint64(rng.Intn(50)), seq: uint64(i + 1), index: -1}
		ts = append(ts, th)
		h.push(th)
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].wakeAt != ts[j].wakeAt {
			return ts[i].wakeAt < ts[j].wakeAt
		}
		return ts[i].seq < ts[j].seq
	})
	for i, want := range ts {
		got := h.pop()
		if got != want {
			t.Fatalf("pop %d: got (wakeAt=%d seq=%d), want (wakeAt=%d seq=%d)",
				i, got.wakeAt, got.seq, want.wakeAt, want.seq)
		}
		if got.index != -1 {
			t.Fatalf("pop %d: index not reset, got %d", i, got.index)
		}
	}
	if h.pop() != nil {
		t.Fatal("pop of empty heap should return nil")
	}
}

// TestThreadsReturnsCopy pins the aliasing fix: mutating the returned
// slice must not corrupt the engine's own registry.
func TestThreadsReturnsCopy(t *testing.T) {
	e := New()
	e.Go("a", 0, 0, func(t *Thread) {})
	e.Go("b", 1, 0, func(t *Thread) {})
	got := e.Threads()
	got[0] = nil
	got = append(got, nil)
	_ = got
	again := e.Threads()
	if len(again) != 2 || again[0] == nil || again[0].Name != "a" {
		t.Fatalf("engine registry corrupted through Threads(): %+v", again)
	}
}

// TestLookahead pins the conservative lookahead to the cheapest
// cross-shard interaction in the cost model.
func TestLookahead(t *testing.T) {
	if got := Lookahead(); got != 1800 {
		t.Fatalf("Lookahead() = %d, want 1800 (cost.IPIBase)", got)
	}
}

// TestDumpIncludesAttrAndShard pins the deadlock-dump upgrades: each
// thread line carries its innermost attribution path and, on a sharded
// engine, its shard.
func TestDumpIncludesAttrAndShard(t *testing.T) {
	e := NewSharded(2, 4)
	e.Go("stuck", 3, 0, func(t *Thread) {
		t.PushAttr("fs.write")
		t.Block("nothing")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"attr=fs.write", "shard=1", "blocked on nothing"} {
			if !contains(msg, want) {
				t.Fatalf("deadlock dump missing %q:\n%s", want, msg)
			}
		}
	}()
	e.Run()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// --- cross-scheduler equivalence ---

// op is one step of a generated thread program.
type op struct {
	kind   int
	cycles uint64
	label  string
	target int // AddRemote target thread index
}

const (
	opCharge = iota
	opChargeAs
	opSleep
	opYield
	opPush
	opPop
	opMutex
	opSpin
	opRead
	opWrite
	opRemote
	opWaitEvent
	numOpKinds
)

var opLabels = []string{"walk", "bw_stall", "ipi_send", "copy"}

// genProgram builds a randomized program for nthreads threads from seed.
// The program is plain data, so both schedulers execute the identical
// op sequence.
func genProgram(seed int64, nthreads, nops int) [][]op {
	rng := rand.New(rand.NewSource(seed))
	progs := make([][]op, nthreads)
	for i := range progs {
		depth := 0
		for j := 0; j < nops; j++ {
			o := op{kind: rng.Intn(numOpKinds), cycles: uint64(1 + rng.Intn(4000))}
			switch o.kind {
			case opChargeAs:
				o.label = opLabels[rng.Intn(len(opLabels))]
			case opPush:
				if depth >= 3 {
					o.kind = opCharge
				} else {
					o.label = opLabels[rng.Intn(len(opLabels))]
					depth++
				}
			case opPop:
				if depth == 0 {
					o.kind = opYield
				} else {
					depth--
				}
			case opRemote:
				o.target = rng.Intn(nthreads)
			}
			progs[i] = append(progs[i], o)
		}
		for ; depth > 0; depth-- {
			progs[i] = append(progs[i], op{kind: opPop})
		}
	}
	return progs
}

// schedTrace is everything observable about one run: final thread
// clocks, engine totals, and the exact sink/observer call sequences.
type schedTrace struct {
	clocks   map[string]uint64
	charged  uint64
	events   uint64
	maxClock uint64
	sink     []string
	observer []string
}

// runProgram executes a generated program on e and records its trace.
// The sink/observer records are appended by the sequential scheduler
// inline and by the sharded scheduler's merger goroutine; Run joins the
// workers before returning, so reading them afterwards is race-free.
func runProgram(e *Engine, progs [][]op) schedTrace {
	var tr schedTrace
	e.SetChargeSink(func(core int, path obs.Path, cycles uint64) {
		tr.sink = append(tr.sink, fmt.Sprintf("%d|%s|%d", core, path.String(), cycles))
	})
	e.SetChargeObserver(func(t *Thread, path obs.Path, cycles uint64, remote bool) {
		tr.observer = append(tr.observer, fmt.Sprintf("%s|%s|%d|%v", t.Name, path.String(), cycles, remote))
	})
	mu := NewMutex(2200)
	var spin SpinLock
	rw := NewRWSem(2200)
	var ev Event
	ths := make([]*Thread, len(progs))
	for i, prog := range progs {
		prog := prog
		ths[i] = e.Go(fmt.Sprintf("t%d", i), i, uint64(i)*37, func(t *Thread) {
			for _, o := range prog {
				switch o.kind {
				case opCharge:
					t.Charge(o.cycles)
				case opChargeAs:
					t.ChargeAs(o.label, o.cycles)
				case opSleep:
					t.Sleep(o.cycles)
				case opYield:
					t.Yield()
				case opPush:
					t.PushAttr(o.label)
				case opPop:
					t.PopAttr()
				case opMutex:
					mu.Lock(t, 80)
					t.Charge(o.cycles)
					mu.Unlock(t, 40)
				case opSpin:
					spin.Lock(t, 80)
					t.Charge(o.cycles)
					spin.Unlock(t, 40)
				case opRead:
					rw.RLock(t, 80)
					t.Charge(o.cycles)
					rw.RUnlock(t, 40)
				case opWrite:
					rw.Lock(t, 80)
					t.Charge(o.cycles)
					rw.Unlock(t, 40)
				case opRemote:
					ths[o.target].AddRemote("ipi.remote", o.cycles)
				case opWaitEvent:
					ev.Wait(t, "prog-event")
				}
			}
		})
	}
	// Broadcaster daemon: guarantees event waiters always wake, so a
	// random program can never deadlock on opWaitEvent.
	e.GoDaemon("broadcaster", 0, 0, func(t *Thread) {
		for {
			ev.Broadcast(t)
			t.Sleep(5_000)
		}
	})
	tr.maxClock = e.Run()
	tr.charged = e.TotalCharged()
	tr.events = e.Events()
	tr.clocks = make(map[string]uint64)
	for _, t := range e.Threads() {
		tr.clocks[t.Name] = t.Now()
	}
	return tr
}

// TestSchedulerEquivalence is the cross-scheduler property test:
// randomized seeded programs of charges, sleeps, yields, attribution
// frames, lock ops (mutex / spin / rwsem), event block/wake and remote
// IPI bookings must produce identical final clocks, identical engine
// totals and identical merged sink/observer event order under the
// sequential and sharded schedulers, across shard counts that divide
// the cores evenly and ones that do not.
func TestSchedulerEquivalence(t *testing.T) {
	const nthreads, nops = 8, 60
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			progs := genProgram(seed, nthreads, nops)
			ref := runProgram(New(), progs)
			for _, shards := range []int{1, 3, 4} {
				got := runProgram(NewSharded(shards, nthreads), progs)
				if got.charged != ref.charged || got.events != ref.events || got.maxClock != ref.maxClock {
					t.Fatalf("shards=%d: totals differ: charged %d vs %d, events %d vs %d, maxClock %d vs %d",
						shards, got.charged, ref.charged, got.events, ref.events, got.maxClock, ref.maxClock)
				}
				for name, c := range ref.clocks {
					if got.clocks[name] != c {
						t.Fatalf("shards=%d: thread %s final clock %d, want %d", shards, name, got.clocks[name], c)
					}
				}
				compareSeqs(t, shards, "sink", ref.sink, got.sink)
				compareSeqs(t, shards, "observer", ref.observer, got.observer)
			}
		})
	}
}

func compareSeqs(t *testing.T, shards int, kind string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("shards=%d: %s call count %d, want %d", shards, kind, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("shards=%d: %s call %d = %q, want %q", shards, kind, i, got[i], want[i])
		}
	}
}

// TestBulkSinkAggregation pins the bulk-sink contract: with a bulk sink
// registered, the sharded scheduler's workers pre-aggregate charges per
// (path, core), and the summed cycles and counts must equal the
// sequential per-call sink stream exactly.
func TestBulkSinkAggregation(t *testing.T) {
	progs := genProgram(42, 8, 60)

	type agg struct{ cycles, count uint64 }
	type key struct {
		core int
		path string
	}

	ref := make(map[key]agg)
	eseq := New()
	eseq.SetChargeSink(func(core int, path obs.Path, cycles uint64) {
		a := ref[key{core, path.String()}]
		a.cycles += cycles
		a.count++
		ref[key{core, path.String()}] = a
	})
	runProgram2(eseq, progs)

	got := make(map[key]agg)
	esh := NewSharded(3, 8)
	esh.SetChargeSink(func(core int, path obs.Path, cycles uint64) {
		t.Error("plain sink called despite bulk sink being registered")
	})
	esh.SetChargeBulkSink(func(core int, path obs.Path, cycles, count uint64) {
		a := got[key{core, path.String()}]
		a.cycles += cycles
		a.count += count
		got[key{core, path.String()}] = a
	})
	runProgram2(esh, progs)

	if len(ref) != len(got) {
		t.Fatalf("aggregate key count %d, want %d", len(got), len(ref))
	}
	for k, w := range ref {
		if got[k] != w {
			t.Fatalf("aggregate %v = %+v, want %+v", k, got[k], w)
		}
	}
}

// runProgram2 runs a program without recording traces (the caller wires
// its own sinks before calling).
func runProgram2(e *Engine, progs [][]op) {
	mu := NewMutex(2200)
	var ev Event
	for i, prog := range progs {
		prog := prog
		e.Go(fmt.Sprintf("t%d", i), i, uint64(i)*37, func(t *Thread) {
			for _, o := range prog {
				switch o.kind {
				case opChargeAs:
					t.ChargeAs(o.label, o.cycles)
				case opSleep:
					t.Sleep(o.cycles)
				case opYield:
					t.Yield()
				case opPush:
					t.PushAttr(o.label)
				case opPop:
					t.PopAttr()
				case opMutex, opSpin, opRead, opWrite:
					mu.Lock(t, 80)
					t.Charge(o.cycles)
					mu.Unlock(t, 40)
				case opWaitEvent:
					ev.Wait(t, "prog-event")
				default:
					t.Charge(o.cycles)
				}
			}
		})
	}
	e.GoDaemon("broadcaster", 0, 0, func(t *Thread) {
		for {
			ev.Broadcast(t)
			t.Sleep(5_000)
		}
	})
	e.Run()
}
