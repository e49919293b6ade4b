package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"daxvm/internal/obs"
)

func TestSingleThreadClock(t *testing.T) {
	e := New()
	var end uint64
	e.Go("t0", 0, 0, func(th *Thread) {
		th.Charge(100)
		th.Yield()
		th.Charge(50)
		end = th.Now()
	})
	max := e.Run()
	if end != 150 {
		t.Fatalf("clock = %d, want 150", end)
	}
	if max != 150 {
		t.Fatalf("max clock = %d, want 150", max)
	}
}

func TestMinClockOrdering(t *testing.T) {
	// Threads with staggered start times must interleave their yields in
	// virtual-time order.
	e := New()
	var order []string
	mk := func(name string, start uint64) {
		e.Go(name, 0, start, func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Yield()
				order = append(order, name)
				th.Charge(100)
			}
		})
	}
	mk("a", 0)   // yields at 0, 100, 200
	mk("b", 50)  // yields at 50, 150, 250
	mk("c", 250) // yields at 250, 350, 450
	e.Run()
	want := []string{"a", "b", "a", "b", "a", "b", "c", "c", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := New()
		m := NewMutex(0)
		var ends []uint64
		for i := 0; i < 8; i++ {
			e.Go("w", i, uint64(i*7), func(th *Thread) {
				for j := 0; j < 20; j++ {
					m.Lock(th, 10)
					th.Charge(33)
					m.Unlock(th, 5)
					th.Charge(17)
				}
				ends = append(ends, th.Now())
			})
		}
		e.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: run1=%v run2=%v", a, b)
		}
	}
}

func TestMutexSerializes(t *testing.T) {
	e := New()
	m := NewMutex(0)
	var inside int32
	var maxInside int32
	var holds [][2]uint64
	for i := 0; i < 4; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			for j := 0; j < 5; j++ {
				m.Lock(th, 0)
				if v := atomic.AddInt32(&inside, 1); v > maxInside {
					maxInside = v
				}
				start := th.Now()
				th.Charge(1000)
				holds = append(holds, [2]uint64{start, th.Now()})
				atomic.AddInt32(&inside, -1)
				m.Unlock(th, 0)
			}
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("mutex admitted %d threads", maxInside)
	}
	// Hold intervals must not overlap in virtual time.
	for i := 1; i < len(holds); i++ {
		if holds[i][0] < holds[i-1][1] {
			t.Fatalf("overlapping holds: %v then %v", holds[i-1], holds[i])
		}
	}
	if m.Stats.Acquisitions != 20 {
		t.Fatalf("acquisitions = %d", m.Stats.Acquisitions)
	}
	if m.Stats.Contended == 0 {
		t.Fatal("expected contention")
	}
}

func TestMutexContentionStretchesTime(t *testing.T) {
	// 4 threads × 10 critical sections of 1000 cycles each must take at
	// least 40000 virtual cycles in total because the lock serializes.
	e := New()
	m := NewMutex(0)
	for i := 0; i < 4; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			for j := 0; j < 10; j++ {
				m.Lock(th, 0)
				th.Charge(1000)
				m.Unlock(th, 0)
			}
		})
	}
	max := e.Run()
	if max < 40000 {
		t.Fatalf("max clock %d < serialized minimum 40000", max)
	}
}

func TestRWSemReadersShare(t *testing.T) {
	e := New()
	s := NewRWSem(0)
	for i := 0; i < 8; i++ {
		e.Go("r", i, 0, func(th *Thread) {
			s.RLock(th, 0)
			th.Charge(1000)
			s.RUnlock(th, 0)
		})
	}
	max := e.Run()
	// All readers run concurrently: finish near 1000, far below 8000.
	if max > 2000 {
		t.Fatalf("readers did not share: max clock %d", max)
	}
}

func TestRWSemWriterExcludes(t *testing.T) {
	e := New()
	s := NewRWSem(0)
	var events []string
	for i := 0; i < 2; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			s.Lock(th, 0)
			events = append(events, "enter")
			th.Charge(500)
			events = append(events, "exit")
			s.Unlock(th, 0)
		})
	}
	e.Run()
	want := []string{"enter", "exit", "enter", "exit"}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v", events)
		}
	}
}

func TestRWSemWriterNotStarved(t *testing.T) {
	// A stream of readers must not starve a waiting writer: once the
	// writer queues, later readers wait behind it.
	e := New()
	s := NewRWSem(0)
	var writerDone uint64
	e.Go("r0", 0, 0, func(th *Thread) {
		s.RLock(th, 0)
		th.Charge(1000)
		s.RUnlock(th, 0)
	})
	e.Go("wr", 1, 100, func(th *Thread) {
		s.Lock(th, 0)
		th.Charge(100)
		s.Unlock(th, 0)
		writerDone = th.Now()
	})
	var lateReaderIn uint64
	e.Go("r1", 2, 200, func(th *Thread) {
		s.RLock(th, 0)
		lateReaderIn = th.Now()
		th.Charge(10)
		s.RUnlock(th, 0)
	})
	e.Run()
	if writerDone == 0 || lateReaderIn < writerDone-100 {
		t.Fatalf("late reader entered at %d before writer finished at %d", lateReaderIn, writerDone)
	}
}

func TestSleepOrdering(t *testing.T) {
	e := New()
	var order []string
	e.Go("sleeper", 0, 0, func(th *Thread) {
		th.Sleep(1000)
		order = append(order, "sleeper")
	})
	e.Go("worker", 1, 0, func(th *Thread) {
		th.Charge(500)
		th.Yield()
		order = append(order, "worker")
	})
	e.Run()
	if order[0] != "worker" || order[1] != "sleeper" {
		t.Fatalf("order = %v", order)
	}
}

func TestDaemonTeardown(t *testing.T) {
	e := New()
	var ticks int
	e.GoDaemon("d", 0, 0, func(th *Thread) {
		for {
			th.Sleep(100)
			ticks++
		}
	})
	e.Go("main", 1, 0, func(th *Thread) {
		th.Charge(550)
		th.Yield()
	})
	e.Run() // must terminate even though the daemon loops forever
	if ticks == 0 {
		t.Fatal("daemon never ran")
	}
	if ticks > 10 {
		t.Fatalf("daemon ran past main exit: %d ticks", ticks)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := New()
	ev := &Event{}
	e.Go("stuck", 0, 0, func(th *Thread) {
		ev.Wait(th, "never")
	})
	e.Run()
}

func TestEventBroadcast(t *testing.T) {
	e := New()
	ev := &Event{}
	var woke []uint64
	for i := 0; i < 3; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			ev.Wait(th, "ev")
			woke = append(woke, th.Now())
		})
	}
	e.Go("sig", 3, 500, func(th *Thread) {
		th.Charge(100)
		th.Yield()
		ev.Broadcast(th)
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke = %v", woke)
	}
	for _, w := range woke {
		if w < 600 {
			t.Fatalf("waiter woke at %d before broadcast at 600", w)
		}
	}
}

func TestSpinLockNoWakeCost(t *testing.T) {
	e := New()
	var sp SpinLock
	var second uint64
	e.Go("a", 0, 0, func(th *Thread) {
		sp.Lock(th, 0)
		th.Charge(1000)
		sp.Unlock(th, 0)
	})
	e.Go("b", 1, 10, func(th *Thread) {
		sp.Lock(th, 0)
		second = th.Now()
		sp.Unlock(th, 0)
	})
	e.Run()
	if second != 1000 {
		t.Fatalf("spinner acquired at %d, want exactly 1000 (release time)", second)
	}
}

func TestChargeSinkAttribution(t *testing.T) {
	e := New()
	type booked struct {
		core  int
		path  string
		cycle uint64
	}
	var got []booked
	e.SetChargeSink(func(core int, path obs.Path, cycles uint64) {
		got = append(got, booked{core, path.String(), cycles})
	})
	e.Go("t0", 3, 0, func(th *Thread) {
		th.Charge(10) // empty stack -> unattributed
		th.PushAttr("app")
		th.Charge(20)
		th.PushAttr("syscall.read") // nests -> app.syscall.read
		th.ChargeAs("copy", 30)     // one-shot child
		th.PopAttr()
		th.AddRemote("shootdown.ipi_handler", 40) // absolute, ignores stack
		th.PopAttr()
	})
	e.Run()
	want := []booked{
		{3, Unattributed, 10},
		{3, "app", 20},
		{3, "app.syscall.read.copy", 30},
		{3, "shootdown.ipi_handler", 40},
	}
	if len(got) != len(want) {
		t.Fatalf("sink calls = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTotalChargedCountsEveryCharge(t *testing.T) {
	// TotalCharged must equal the sum of all Charge/ChargeAs/AddRemote
	// amounts — idle time (Sleep) and lock waits are excluded because
	// dispatch advances clocks without charging.
	e := New()
	e.Go("a", 0, 0, func(th *Thread) {
		th.PushAttr("app")
		th.Charge(100)
		th.Sleep(5000) // idle: not charged
		th.ChargeAs("tail", 11)
	})
	e.Go("b", 1, 0, func(th *Thread) {
		th.Charge(7)
		th.AddRemote("x.y", 3)
	})
	e.Run()
	if e.TotalCharged() != 121 {
		t.Fatalf("TotalCharged = %d, want 121", e.TotalCharged())
	}
}

func TestGoFromRunningThread(t *testing.T) {
	e := New()
	var childClock uint64
	e.Go("parent", 0, 0, func(th *Thread) {
		th.Charge(300)
		th.e.Go("child", 1, th.Now(), func(c *Thread) {
			childClock = c.Now()
		})
		th.Charge(100)
	})
	e.Run()
	if childClock != 300 {
		t.Fatalf("child started at %d, want 300", childClock)
	}
}

// BenchmarkDispatch times the engine's dispatch: two threads at the same
// clock ping-pong on Yield, so every Yield switches back to the driver,
// which resumes the other thread's coroutine. One op is one Yield by each
// thread — two dispatches, four coroutine switches.
func BenchmarkDispatch(b *testing.B) { benchDispatch(b, 2) }

// BenchmarkDispatch16 is BenchmarkDispatch with 16 threads on 16 cores
// taking turns, the shape of a 16-thread server workload: each Yield
// queues behind the other 15. One op is one Yield by each thread — 16
// dispatches.
func BenchmarkDispatch16(b *testing.B) { benchDispatch(b, 16) }

func benchDispatch(b *testing.B, threads int) {
	e := New()
	for i := 0; i < threads; i++ {
		e.Go("ping", i, 0, func(t *Thread) {
			for j := 0; j < b.N; j++ {
				t.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// TestSwitchesExcludeFastPath pins Switches: a Yield by the
// minimum-clock thread continues without a switch, and every other
// dispatch resumes a different thread.
func TestSwitchesExcludeFastPath(t *testing.T) {
	e := New()
	e.Go("runner", 0, 0, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Charge(10)
			th.Yield() // still the minimum: the sleeper waits at 1000
		}
	})
	e.Go("sleeper", 1, 1000, func(th *Thread) { th.Yield() })
	e.Run()
	if got := e.Switches(); got != 2 {
		t.Fatalf("fast path: Switches = %d, want 2 (one dispatch per thread)", got)
	}

	e = New()
	for i := 0; i < 2; i++ {
		e.Go("ping", i, 0, func(th *Thread) {
			for j := 0; j < 3; j++ {
				th.Yield()
			}
		})
	}
	e.Run()
	// Two first dispatches, then every Yield and the first exit switch.
	if got := e.Switches(); got != 2+2*3 {
		t.Fatalf("ping-pong: Switches = %d, want %d", got, 2+2*3)
	}
}

// checkGoroutines fails when the goroutine count is above base: Run must
// not return before every coroutine it started has ended.
func checkGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%s: %d goroutines after Run, %d before", what, n, base)
	}
}

// parkedDaemons registers daemons that park forever and log their
// deferred calls, so a test can see them unwind.
func parkedDaemons(e *Engine, log *[]string, names ...string) {
	for i, name := range names {
		e.GoDaemon(name, 10+i, 0, func(th *Thread) {
			defer func() { *log = append(*log, name) }()
			for {
				th.Sleep(uint64(100 * (i + 1)))
			}
		})
	}
}

// TestGoexitEndsRunCaller: runtime.Goexit inside a sim thread (what
// t.Fatalf does) ends the goroutine that called Run, after every other
// thread has unwound, and Run does not return.
func TestGoexitEndsRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var log []string
	var returned, resumed bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		e := New()
		parkedDaemons(e, &log, "d0", "d1")
		e.Go("quitter", 0, 0, func(th *Thread) {
			th.Sleep(250)
			runtime.Goexit()
			resumed = true
		})
		e.Run()
		returned = true
	}()
	<-done
	if returned || resumed {
		t.Fatalf("Run returned = %v, thread resumed after Goexit = %v; want neither", returned, resumed)
	}
	if !reflect.DeepEqual(log, []string{"d0", "d1"}) {
		t.Fatalf("daemons unwound %v, want [d0 d1]", log)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond) // the Run caller's goroutine exits after close(done)
	}
	checkGoroutines(t, "Goexit", base)
}

// TestDaemonDeferredCallsRunOnce: at shutdown each parked daemon's
// deferred calls run exactly once, in registration order (not clock
// order), before Run returns. A daemon that already exited is not
// unwound again, and one never dispatched has nothing to unwind.
func TestDaemonDeferredCallsRunOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	var log []string
	parkedDaemons(e, &log, "d0")
	e.GoDaemon("quit", 5, 0, func(th *Thread) {
		defer func() { log = append(log, "quit") }()
		th.Sleep(50)
	})
	parkedDaemons(e, &log, "d1")
	e.GoDaemon("late", 6, 1<<40, func(th *Thread) {
		defer func() { log = append(log, "late") }()
	})
	e.Go("main", 0, 0, func(th *Thread) { th.Sleep(1000) })
	e.Run()
	if want := []string{"quit", "d0", "d1"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("deferred calls ran %v, want %v", log, want)
	}
	checkGoroutines(t, "normal run", base)
}

// TestPanicReachesRunCaller: a thread's panic value reaches Run's caller
// unchanged, after the other threads have unwound.
func TestPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	type boom struct{ at uint64 }
	want := &boom{}
	var log []string
	func() {
		defer func() {
			if r := recover(); r != want {
				t.Fatalf("Run panicked with %#v, want %#v", r, want)
			}
		}()
		e := New()
		parkedDaemons(e, &log, "d0")
		e.Go("bystander", 1, 0, func(th *Thread) {
			defer func() { log = append(log, "bystander") }()
			th.Sleep(1 << 20)
		})
		e.Go("thrower", 0, 0, func(th *Thread) {
			th.Sleep(500)
			want.at = th.Now()
			panic(want)
		})
		e.Run()
	}()
	if want.at != 500 {
		t.Fatalf("thrower panicked at %d, want 500", want.at)
	}
	if !reflect.DeepEqual(log, []string{"d0", "bystander"}) {
		t.Fatalf("threads unwound %v, want [d0 bystander]", log)
	}
	checkGoroutines(t, "panicking run", base)
}

// TestDeadlockLeavesNoGoroutines: a deadlock panics out of Run with every
// started thread unwound.
func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var log []string
	func() {
		defer func() {
			if r := recover(); !strings.HasPrefix(fmt.Sprint(r), "sim: deadlock") {
				t.Fatalf("Run panicked with %v, want a deadlock", r)
			}
		}()
		e := New()
		ev := &Event{}
		for _, name := range []string{"w0", "w1"} {
			e.Go(name, 0, 0, func(th *Thread) {
				defer func() { log = append(log, name) }()
				ev.Wait(th, "never")
			})
		}
		e.Run()
	}()
	if !reflect.DeepEqual(log, []string{"w0", "w1"}) {
		t.Fatalf("threads unwound %v, want [w0 w1]", log)
	}
	checkGoroutines(t, "deadlocked run", base)
}

// TestSinkAndObserverAgree pins the engine's delivery contract for both
// taps: every charge reaches the sink and the observer once, in the same
// order, with the same core, path and cycles, and the two together
// account for exactly TotalCharged. Only AddRemote bookings are flagged
// remote, and they land on the target thread. Each case runs threads a
// (core 0) and b (core 1); body gets the running thread and its peer.
func TestSinkAndObserverAgree(t *testing.T) {
	mu := func() func(th, peer *Thread) {
		m := NewMutex(2200)
		return func(th, _ *Thread) {
			m.Lock(th, 80)
			th.Charge(100)
			m.Unlock(th, 40)
		}
	}
	rw := func() func(th, peer *Thread) {
		s := NewRWSem(2200)
		return func(th, _ *Thread) {
			if th.Name == "a" {
				s.Lock(th, 80)
				th.Charge(100)
				s.Unlock(th, 40)
				return
			}
			s.RLock(th, 80)
			th.Charge(100)
			s.RUnlock(th, 40)
		}
	}
	spin := func() func(th, peer *Thread) {
		s := &SpinLock{}
		return func(th, _ *Thread) {
			s.Lock(th, 80)
			th.Charge(100)
			s.Unlock(th, 40)
		}
	}
	cases := []struct {
		name        string
		body        func(th, peer *Thread)
		wantCharges int
		wantCycles  uint64
		wantRemote  int
	}{
		{name: "Charge", body: func(th, _ *Thread) {
			th.PushAttr("app")
			th.Charge(10)
			th.PopAttr()
		}, wantCharges: 2, wantCycles: 20},
		{name: "ChargeAs", body: func(th, _ *Thread) {
			th.PushAttr("app")
			th.ChargeAs("copy", 20)
			th.PopAttr()
		}, wantCharges: 2, wantCycles: 40},
		{name: "AddRemote", body: func(th, peer *Thread) {
			if th.Name == "a" {
				peer.AddRemote("shootdown.ipi_handler", 40)
				return
			}
			th.Sleep(1000)
			th.Charge(5)
		}, wantCharges: 2, wantCycles: 45, wantRemote: 1},
		// One of the two lockers contends and pays the 2200-cycle wakeup.
		{name: "Mutex", body: mu(), wantCharges: 7, wantCycles: 2*220 + 2200},
		{name: "RWSem", body: rw(), wantCharges: 7, wantCycles: 2*220 + 2200},
		{name: "SpinLock", body: spin(), wantCharges: 6, wantCycles: 2 * 220},
		// Idle time is never charged.
		{name: "Sleep", body: func(th, _ *Thread) {
			th.Charge(10)
			th.Sleep(1000)
			th.Charge(10)
		}, wantCharges: 4, wantCycles: 40},
	}
	type booked struct {
		core   int
		path   obs.Path
		cycles uint64
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e := New()
			var sunk, seen []booked
			var remote int
			e.SetChargeSink(func(core int, path obs.Path, cycles uint64) {
				sunk = append(sunk, booked{core, path, cycles})
			})
			e.SetChargeObserver(func(th *Thread, path obs.Path, cycles uint64, isRemote bool) {
				seen = append(seen, booked{th.Core, path, cycles})
				if isRemote {
					remote++
					if th.Name != "b" {
						t.Errorf("remote booking landed on %s, want the target b", th.Name)
					}
				}
			})
			var a, b *Thread
			a = e.Go("a", 0, 0, func(th *Thread) { c.body(th, b) })
			b = e.Go("b", 1, 0, func(th *Thread) { c.body(th, a) })
			e.Run()

			if len(sunk) != len(seen) {
				t.Fatalf("sink got %d charges, observer %d", len(sunk), len(seen))
			}
			var sum uint64
			for i := range sunk {
				if sunk[i] != seen[i] {
					t.Fatalf("charge %d: sink %+v, observer %+v", i, sunk[i], seen[i])
				}
				sum += sunk[i].cycles
			}
			if len(sunk) != c.wantCharges || sum != c.wantCycles || remote != c.wantRemote {
				t.Fatalf("got %d charges / %d cycles / %d remote, want %d / %d / %d",
					len(sunk), sum, remote, c.wantCharges, c.wantCycles, c.wantRemote)
			}
			if sum != e.TotalCharged() {
				t.Fatalf("taps saw %d cycles, engine charged %d", sum, e.TotalCharged())
			}
		})
	}
}
