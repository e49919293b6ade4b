package sim

import (
	"sync/atomic"
	"testing"

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
