package pmem

import (
	"bytes"
	"runtime"
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/sim"
)

// residentPages reports how many of d's pages hold backing memory.
func (d *Device) residentPages() int {
	n := 0
	for _, l := range d.dir {
		if l == nil {
			continue
		}
		for _, p := range l {
			if p != nil {
				n++
			}
		}
	}
	return n
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestUntouchedReadsZero(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		buf := bytes.Repeat([]byte{0xEE}, 3*mem.PageSize)
		d.Read(th, 100, buf)
		if !allZero(buf) {
			t.Error("Read of an untouched range returned non-zero bytes")
		}
	})
	peek := bytes.Repeat([]byte{0xEE}, 64)
	d.Peek(1<<19, peek)
	if !allZero(peek) {
		t.Error("Peek of an untouched range returned non-zero bytes")
	}
	if n := d.residentPages(); n != 0 {
		t.Fatalf("reads materialized %d pages", n)
	}
}

func TestWriteMaterializesOnlyTouchedPages(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		// 10 bytes straddling the boundary between pages 1 and 2.
		src := []byte("0123456789")
		d.WriteNT(th, 2*mem.PageSize-5, src)
		got := make([]byte, len(src))
		d.Read(th, 2*mem.PageSize-5, got)
		if !bytes.Equal(got, src) {
			t.Errorf("straddling write read back %q", got)
		}
	})
	if n := d.residentPages(); n != 2 {
		t.Fatalf("resident pages = %d, want 2", n)
	}
}

func TestZeroReleasesWholePagesAndClearsPartial(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		d.WriteNT(th, 0, bytes.Repeat([]byte{0xAB}, 4*mem.PageSize))
		// Pages 1 and 2 wholly, plus the tail of page 0 and the head of
		// page 3.
		d.Zero(th, mem.PageSize-100, 2*mem.PageSize+200)
	})
	if n := d.residentPages(); n != 2 {
		t.Fatalf("resident pages after Zero = %d, want 2 (partial pages kept)", n)
	}
	if len(d.spare) != 2 {
		t.Fatalf("spare pages = %d, want 2", len(d.spare))
	}
	got := make([]byte, 4*mem.PageSize)
	d.Peek(0, got)
	for i, b := range got {
		zeroed := i >= mem.PageSize-100 && i < 3*mem.PageSize+100
		if zeroed && b != 0 || !zeroed && b != 0xAB {
			t.Fatalf("byte %d = %#x after partial Zero", i, b)
		}
	}
}

func TestDiscardIsFreeAndReleases(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		d.WriteNT(th, 0, bytes.Repeat([]byte{0x11}, 2*mem.PageSize))
	})
	before := d.Stats
	d.Discard(0, 2*mem.PageSize)
	if d.Stats != before {
		t.Fatalf("Discard changed stats: %+v -> %+v", before, d.Stats)
	}
	if n := d.residentPages(); n != 0 {
		t.Fatalf("resident pages after Discard = %d, want 0", n)
	}
	got := make([]byte, 2*mem.PageSize)
	d.Peek(0, got)
	if !allZero(got) {
		t.Fatal("discarded range does not read as zeros")
	}
	// Discarding absent pages is a no-op.
	d.Discard(8*mem.PageSize, 4*mem.PageSize)
	if len(d.spare) != 2 {
		t.Fatalf("spare pages = %d, want 2", len(d.spare))
	}
}

func TestRecycledPageLeaksNoStaleBytes(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		d.WriteNT(th, 0, bytes.Repeat([]byte{0x77}, mem.PageSize))
		d.Zero(th, 0, mem.PageSize) // page 0 goes to the spare list
		d.WriteNT(th, 5*mem.PageSize+9, []byte{0x01})
	})
	if len(d.spare) != 0 {
		t.Fatal("the 1-byte write did not reuse the spare page")
	}
	got := make([]byte, mem.PageSize)
	d.Peek(5*mem.PageSize, got)
	for i, b := range got {
		want := byte(0)
		if i == 9 {
			want = 0x01
		}
		if b != want {
			t.Fatalf("recycled page byte %d = %#x, want %#x", i, b, want)
		}
	}
	// A whole-page write onto a recycled page must still land intact.
	run(func(th *sim.Thread) {
		d.Zero(th, 5*mem.PageSize, mem.PageSize)
		d.WriteCached(th, 6*mem.PageSize, bytes.Repeat([]byte{0x42}, mem.PageSize))
	})
	d.Peek(6*mem.PageSize, got)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x42}, mem.PageSize)) {
		t.Fatal("whole-page write onto a recycled page read back wrong")
	}
}

func TestCrashCorruptsExactlyTrackedLines(t *testing.T) {
	d := New(Config{Size: 1 << 20, TrackPersistence: true})
	run(func(th *sim.Thread) {
		// Dirty line 1 of page 0 (present page).
		d.WriteCached(th, mem.CacheLineSize, []byte{1})
		// Flushed-unfenced line on page 2, then discard the page so the
		// tracked line sits on an absent page.
		d.WriteCached(th, 2*mem.PageSize, []byte{2})
		d.Flush(th, 2*mem.PageSize, 1)
		d.Discard(2*mem.PageSize, mem.PageSize)
		// An NT store awaiting its fence on an otherwise untouched page.
		d.StreamNT(th, 3*mem.PageSize+5*mem.CacheLineSize, 2*mem.CacheLineSize)
	})
	corrupt := map[uint64]bool{
		mem.CacheLineSize:                    true,
		2 * mem.PageSize:                     true,
		3*mem.PageSize + 5*mem.CacheLineSize: true,
		3*mem.PageSize + 6*mem.CacheLineSize: true,
		0:                                    false,
		2 * mem.CacheLineSize:                false,
		2*mem.PageSize + mem.CacheLineSize:   false,
		3*mem.PageSize + 4*mem.CacheLineSize: false,
		3*mem.PageSize + 7*mem.CacheLineSize: false,
		5 * mem.PageSize:                     false,
	}
	d.Crash()
	line := make([]byte, mem.CacheLineSize)
	for addr, bad := range corrupt {
		d.Peek(mem.PhysAddr(addr), line)
		want := byte(0)
		if bad {
			want = 0xCC
		}
		if !bytes.Equal(line, bytes.Repeat([]byte{want}, mem.CacheLineSize)) {
			t.Errorf("line at %#x = % x, want all %#x", addr, line[:8], want)
		}
	}
	if n := d.residentPages(); n != 3 {
		t.Fatalf("resident pages after crash = %d, want 3", n)
	}
}

func TestBytesWithinPage(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	raw := d.Bytes(3*mem.PageSize+8, 8)
	copy(raw, "rawview!")
	got := make([]byte, 8)
	d.Peek(3*mem.PageSize+8, got)
	if string(got) != "rawview!" {
		t.Fatalf("write through Bytes read back %q", got)
	}
	if tail := d.Bytes(4*mem.PageSize-8, 8); len(tail) != 8 {
		t.Fatalf("page-tail view has length %d", len(tail))
	}
}

func TestBytesCrossPagePanics(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	defer func() {
		if recover() == nil {
			t.Fatal("cross-page Bytes did not panic")
		}
	}()
	d.Bytes(mem.PageSize-4, 8)
}

// New must not allocate in proportion to the device size: only the
// directory's top level exists before the first write.
func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(Config{Size: 1 << 30})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("New of a 1 GiB device allocated %d bytes, want < 64 KiB", got)
	}
}

// A write materializes one directory leaf and one page; frames in the
// same 2 MiB range share the leaf, and the last leaf of a device whose
// size is not a multiple of 2 MiB still covers its tail frames.
func TestDirectoryLeavesOnDemand(t *testing.T) {
	d := New(Config{Size: 3 * leafPages * mem.PageSize / 2})
	leaves := func() int {
		n := 0
		for _, l := range d.dir {
			if l != nil {
				n++
			}
		}
		return n
	}
	if len(d.dir) != 2 || leaves() != 0 {
		t.Fatalf("fresh device: %d top-level slots, %d leaves; want 2, 0", len(d.dir), leaves())
	}
	last := mem.PhysAddr(d.Size() - mem.PageSize)
	run(func(th *sim.Thread) {
		d.WriteNT(th, 0, []byte{1})
		d.WriteNT(th, mem.PageSize, []byte{2})
		d.WriteNT(th, last, []byte{3})
	})
	if leaves() != 2 || d.residentPages() != 3 {
		t.Fatalf("after 3 writes: %d leaves, %d pages; want 2, 3", leaves(), d.residentPages())
	}
	got := make([]byte, 1)
	d.Peek(last, got)
	if got[0] != 3 {
		t.Fatalf("tail frame read back %d, want 3", got[0])
	}
}
