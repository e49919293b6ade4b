package pmem

import (
	"bytes"
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/sim"
)

// run executes fn on a single sim thread.
func run(fn func(t *sim.Thread)) uint64 {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	return e.Run()
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		src := []byte("persistent memory payload")
		d.WriteNT(th, 4096, src)
		got := make([]byte, len(src))
		d.Read(th, 4096, got)
		if !bytes.Equal(got, src) {
			t.Errorf("round trip mismatch: %q", got)
		}
	})
	if d.Stats.BytesWritten == 0 || d.Stats.BytesRead == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run(func(th *sim.Thread) {
		d.Read(th, 1<<16-8, make([]byte, 64))
	})
}

func TestNTStoreCostsMoreThanRead(t *testing.T) {
	d := New(Config{Size: 1 << 22})
	buf := make([]byte, 1<<20)
	wr := run(func(th *sim.Thread) { d.WriteNT(th, 0, buf) })
	d2 := New(Config{Size: 1 << 22})
	rd := run(func(th *sim.Thread) { d2.Read(th, 0, buf) })
	if wr <= rd {
		t.Fatalf("nt-store (%d cycles) should cost more than read (%d): Optane write bandwidth is lower", wr, rd)
	}
}

func TestZeroClears(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		d.WriteNT(th, 0, bytes.Repeat([]byte{0xAB}, 8192))
		d.Zero(th, 0, 8192)
		got := make([]byte, 8192)
		d.Peek(0, got)
		for i, b := range got {
			if b != 0 {
				t.Fatalf("byte %d not zeroed: %#x", i, b)
				return
			}
		}
	})
}

func TestPersistenceTracking(t *testing.T) {
	d := New(Config{Size: 1 << 20, TrackPersistence: true})
	run(func(th *sim.Thread) {
		payload := bytes.Repeat([]byte{0x5A}, 128)

		// Cached stores without flush do not survive a crash.
		d.WriteCached(th, 0, payload)
		if d.DirtyLineCount() != 2 {
			t.Errorf("dirty lines = %d, want 2", d.DirtyLineCount())
		}

		// Flushed + fenced stores survive.
		d.WriteCached(th, 4096, payload)
		d.Flush(th, 4096, 128)
		d.Fence(th)

		// NT store + fence survives.
		d.WriteNT(th, 8192, payload)
		d.Fence(th)

		d.Crash()

		if b := d.Bytes(0, 1); b[0] != 0xCC {
			t.Errorf("unflushed line survived crash: %#x", b[0])
		}
		if !bytes.Equal(d.Bytes(4096, 128), payload) {
			t.Error("flushed+fenced data lost in crash")
		}
		if !bytes.Equal(d.Bytes(8192, 128), payload) {
			t.Error("nt-stored+fenced data lost in crash")
		}
	})
}

func TestFlushWithoutFenceUnsafe(t *testing.T) {
	d := New(Config{Size: 1 << 20, TrackPersistence: true})
	run(func(th *sim.Thread) {
		d.WriteCached(th, 0, []byte{1, 2, 3, 4})
		d.Flush(th, 0, 4)
		// No fence: the adversarial crash model drops it.
		d.Crash()
		if d.Bytes(0, 1)[0] != 0xCC {
			t.Error("flushed-unfenced line should not be trusted after crash")
		}
	})
}

func TestBandwidthNoSelfInterference(t *testing.T) {
	// A single thread can never outrun the device: its own per-thread
	// bandwidth is below the device bandwidth, so it must see no stall.
	d := New(Config{Size: 1 << 26})
	run(func(th *sim.Thread) {
		for i := 0; i < 64; i++ {
			d.WriteNT(th, mem.PhysAddr(i*65536), make([]byte, 65536))
		}
	})
	if d.Stats.ThrottleStall != 0 {
		t.Fatalf("single writer stalled %d cycles", d.Stats.ThrottleStall)
	}
}

func TestBandwidthInterference(t *testing.T) {
	// Eight concurrent writers demand ~8×2.3 GB/s, above the ~13 GB/s
	// device write budget: some must stall on the shared channel.
	d := New(Config{Size: 1 << 26})
	e := sim.New()
	for w := 0; w < 8; w++ {
		base := mem.PhysAddr(w * (4 << 20))
		e.Go("w", w, 0, func(th *sim.Thread) {
			buf := make([]byte, 65536)
			for i := 0; i < 32; i++ {
				d.WriteNT(th, base+mem.PhysAddr(i*65536), buf)
				th.Yield() // interleave with the other writers
			}
		})
	}
	e.Run()
	if d.Stats.ThrottleStall == 0 {
		t.Fatal("8 concurrent writers saw no interference on the shared channel")
	}
}
