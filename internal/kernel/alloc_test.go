package kernel

import (
	"bytes"
	"runtime"
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/sim"
)

// TestMappingChurnAllocs pins the host allocation of a steady stream of
// POSIX requests: open, read(2), mmap + copy-out + munmap, close. Page-table
// nodes, VMAs, VMA-tree nodes, descriptors and syscall frames are all
// recycled, so once the first requests have warmed the free lists a
// request allocates nothing of its own. What is left is the amortized
// doubling of queues that grow by a few entries per request (the TLB's
// insertion FIFO, the inode cache's LRU log): a handful of allocations
// over hundreds of requests. Per-request garbage would make a serving
// workload's peak host memory depend on when the Go collector runs.
func TestMappingChurnAllocs(t *testing.T) {
	const size = 32 << 10
	k := Boot(Config{Cores: 1, DeviceBytes: 256 << 20})
	p := k.NewProc()
	payload := bytes.Repeat([]byte("churn"), size/5+1)[:size]
	var mallocs uint64
	const warm, measured = 256, 256
	p.Spawn("main", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "f")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := p.Append(th, fd, payload); err != nil {
			t.Errorf("Append: %v", err)
			return
		}
		p.Close(th, fd)
		buf := make([]byte, size)
		request := func() bool {
			fd, err := p.Open(th, "f")
			if err != nil {
				t.Errorf("Open: %v", err)
				return false
			}
			defer p.Close(th, fd)
			if _, err := p.ReadAt(th, fd, 0, buf); err != nil || !bytes.Equal(buf, payload) {
				t.Errorf("ReadAt: %v", err)
				return false
			}
			va, err := p.Mmap(th, c, fd, 0, size, mem.PermRead, mm.MapShared|mm.MapSync)
			if err != nil {
				t.Errorf("Mmap: %v", err)
				return false
			}
			if err := p.AccessMapped(th, c, va, size, KindCopyOut); err != nil {
				t.Errorf("AccessMapped: %v", err)
				return false
			}
			if err := p.Munmap(th, c, va, size); err != nil {
				t.Errorf("Munmap: %v", err)
				return false
			}
			return true
		}
		for i := 0; i < warm; i++ {
			if !request() {
				return
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < measured; i++ {
			if !request() {
				return
			}
		}
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
	})
	k.Run()
	if per := float64(mallocs) / measured; per >= 0.125 {
		t.Fatalf("steady-state request made %.2f host allocations, want ~0 (%d over %d requests)", per, mallocs, measured)
	}
}
