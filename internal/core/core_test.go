package core

import (
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/dram"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// env wires a device, an ext4 image with DaxVM hooks, an inode cache, one
// process and the DaxVM manager — the kernel package repeats this wiring
// for real workloads.
type env struct {
	dev    *pmem.Device
	fs     *ext4.FS
	icache *vfs.ICache
	mm     *mm.MM
	cpus   *cpu.Set
	d      *DaxVM
	proc   *Proc
	engine *sim.Engine
}

func newEnv(devMB int, ncores int, cfg Config) *env {
	ev := &env{}
	ev.dev = pmem.New(pmem.Config{Size: uint64(devMB) << 20})
	ev.cpus = cpu.NewSet(ncores)
	pool := dram.New(4 << 30)

	var hooks *vfs.Hooks
	ev.fs = ext4.Mkfs(ext4.Config{Dev: ev.dev, JournalBytes: 8 << 20, Hooks: nil})
	ev.d = New(cfg, ev.dev, pool, ev.cpus, ev.fs.Allocator(), ev.fs)
	hooks = ev.d.Hooks(true)
	// Re-create the FS with hooks (Mkfs stores them); simplest is to use
	// the setter below.
	ev.fs.SetHooks(hooks)
	ev.icache = vfs.NewICache(ev.fs, 1024, hooks)

	ev.mm = mm.New(pool, ev.fs, ev.cpus)
	for _, c := range ev.cpus.Cores {
		ev.mm.RunOn(c)
	}
	ev.proc = ev.d.NewProc(ev.mm)
	ev.engine = sim.New()
	return ev
}

func (ev *env) run(fn func(t *sim.Thread)) uint64 {
	ev.engine.Go("t", 0, 0, fn)
	return ev.engine.Run()
}

func (ev *env) mkFile(t *sim.Thread, path string, size uint64) *vfs.Inode {
	in, err := ev.icache.Create(t, path)
	if err != nil {
		panic(err)
	}
	if size > 0 {
		if err := ev.fs.Append(t, in, make([]byte, size)); err != nil {
			panic(err)
		}
	}
	return in
}

func TestO1MmapLatencyIndependentOfSize(t *testing.T) {
	// The headline property: daxvm_mmap latency must be near-constant in
	// file size, while baseline MAP_POPULATE scales linearly.
	mmapCost := func(size uint64, daxvm bool) uint64 {
		ev := newEnv(512, 1, Config{})
		// Level the field: compare pure paging cost, not huge-page luck
		// on a fresh image (the paper's aged image rarely has it).
		ev.mm.HugePagesEnabled = false
		var cycles uint64
		ev.run(func(th *sim.Thread) {
			in := ev.mkFile(th, "f", size)
			core := ev.cpus.Cores[0]
			core.Bind(th)
			start := th.Now()
			if daxvm {
				if _, err := ev.proc.Mmap(th, core, in, 0, size, mem.PermRead, 0); err != nil {
					t.Errorf("daxvm mmap: %v", err)
				}
			} else {
				if _, err := ev.mm.Mmap(th, core, in, 0, size, mem.PermRead, mm.MapShared|mm.MapPopulate); err != nil {
					t.Errorf("mmap: %v", err)
				}
			}
			cycles = th.Now() - start
		})
		return cycles
	}
	daxSmall := mmapCost(64<<10, true)
	daxBig := mmapCost(128<<20, true)
	popSmall := mmapCost(64<<10, false)
	popBig := mmapCost(128<<20, false)

	if daxBig > daxSmall*40 {
		t.Errorf("daxvm mmap not O(1): 64K=%d vs 128M=%d", daxSmall, daxBig)
	}
	if popBig < popSmall*20 {
		t.Errorf("populate should scale with size: 64K=%d vs 128M=%d", popSmall, popBig)
	}
	if daxBig*10 > popBig {
		t.Errorf("daxvm (%d) should be far cheaper than populate (%d) for 128M", daxBig, popBig)
	}
}

func TestDaxVMAccessNoFaults(t *testing.T) {
	ev := newEnv(128, 1, Config{})
	ev.run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 256<<10)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, err := ev.proc.Mmap(th, core, in, 0, 256<<10, mem.PermRead, 0)
		if err != nil {
			t.Errorf("Mmap: %v", err)
		}
		if err := ev.mm.Access(th, core, va, 256<<10, false, 0); err != nil {
			t.Errorf("Access: %v", err)
		}
		if ev.mm.Stats.MinorFaults != 0 {
			t.Errorf("DaxVM mapping took %d demand faults", ev.mm.Stats.MinorFaults)
		}
	})
}

func TestReturnedVAHonorsOffsetRounding(t *testing.T) {
	ev := newEnv(128, 1, Config{})
	ev.run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 8<<20)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		// Request an interior, non-2MiB-aligned offset.
		off := uint64(3<<20 + 8192)
		va, err := ev.proc.Mmap(th, core, in, off, 4096, mem.PermRead, 0)
		if err != nil {
			t.Errorf("Mmap: %v", err)
		}
		if uint64(va)%mem.PageSize != 0 {
			t.Error("returned VA not page aligned")
		}
		// The alignment rule: va maps exactly fileOff, and the 2 MiB
		// region around it is silently mapped.
		if err := ev.mm.Access(th, core, va, 4096, false, 0); err != nil {
			t.Errorf("requested page: %v", err)
		}
		before := va - mem.VirtAddr(8192)
		if err := ev.mm.Access(th, core, before, 4096, false, 0); err != nil {
			t.Errorf("silently mapped neighbourhood should be accessible: %v", err)
		}
	})
}

func TestPerProcessPermissions(t *testing.T) {
	ev := newEnv(128, 2, Config{})
	// Second process sharing the same DaxVM manager and FS.
	m2 := mm.New(dram.New(1<<30), ev.fs, ev.cpus)
	m2.RunOn(ev.cpus.Cores[1])
	proc2 := ev.d.NewProc(m2)

	ev.run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 64<<10)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		vaRW, err := ev.proc.Mmap(th, core, in, 0, 64<<10, mem.PermRead|mem.PermWrite, FlagNoMsync)
		if err != nil {
			t.Errorf("rw mmap: %v", err)
		}
		if err := ev.mm.Access(th, core, vaRW, 4096, true, 0); err != nil {
			t.Errorf("rw write: %v", err)
		}

		core2 := ev.cpus.Cores[1]
		vaRO, err := proc2.Mmap(th, core2, in, 0, 64<<10, mem.PermRead, 0)
		if err != nil {
			t.Errorf("ro mmap: %v", err)
		}
		if err := m2.Access(th, core2, vaRO, 4096, false, 0); err != nil {
			t.Errorf("ro read: %v", err)
		}
		if err := m2.Access(th, core2, vaRO, 4096, true, 0); err == nil {
			t.Error("write through RO attachment succeeded")
		}
		// Both processes share ONE file table (built online by the alloc
		// hook, never cold-rebuilt per process).
		if ev.d.Stats.ColdBuilds != 0 {
			t.Errorf("cold builds = %d, want 0", ev.d.Stats.ColdBuilds)
		}
		if len(ev.d.tables) != 1 {
			t.Errorf("persistent tables = %d, want 1 shared", len(ev.d.tables))
		}
	})
}

func TestVolatilePersistentThresholdAndUpgrade(t *testing.T) {
	ev := newEnv(128, 1, Config{})
	ev.run(func(th *sim.Thread) {
		small := ev.mkFile(th, "small", 16<<10)
		ftS := ev.d.TableOf(small)
		if ftS == nil || ftS.Persistent {
			t.Errorf("16K file should have a volatile table: %+v", ftS)
		}
		big := ev.mkFile(th, "big", 1<<20)
		ftB := ev.d.TableOf(big)
		if ftB == nil || !ftB.Persistent {
			t.Error("1M file should have a persistent table")
		}
		// Growing the small file across the threshold upgrades it.
		ev.fs.Append(th, small, make([]byte, 64<<10))
		ftS2 := ev.d.TableOf(small)
		if ftS2 == nil || !ftS2.Persistent {
			t.Error("table not upgraded after growth past 32K")
		}
		if ev.d.Stats.Upgrades != 1 {
			t.Errorf("upgrades = %d", ev.d.Stats.Upgrades)
		}
	})
}

func TestEvictionDestroysVolatileKeepsPersistent(t *testing.T) {
	ev := newEnv(128, 1, Config{})
	ev.run(func(th *sim.Thread) {
		small := ev.mkFile(th, "small", 8<<10)
		big := ev.mkFile(th, "big", 1<<20)
		dramBefore := ev.d.Stats.DRAMTableBytes
		if dramBefore == 0 {
			t.Error("volatile table allocated no DRAM")
		}
		ev.icache.Put(th, small)
		ev.icache.Put(th, big)
		// Force eviction by flooding the cache.
		for i := 0; i < 2000; i++ {
			in := ev.mkFile(th, "flood/"+string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune('0'+(i/10)%10))+string(rune('0'+(i/100)%10))+string(rune('0'+(i/1000)%10)), 4096)
			ev.icache.Put(th, in)
		}
		if ev.icache.Stats.Evictions == 0 {
			t.Error("no evictions happened")
		}
		// The persistent table must still be registered.
		if _, ok := ev.d.tables[big.Ino]; !ok {
			t.Error("persistent table lost on eviction")
		}
	})
}

func TestWPFaultAt2MGranularity(t *testing.T) {
	ev := newEnv(256, 1, Config{})
	ev.run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 8<<20)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, _ := ev.proc.Mmap(th, core, in, 0, 8<<20, mem.PermRead|mem.PermWrite, 0)
		// Write 64 pages inside ONE 2 MiB region: exactly one DaxVM WP
		// fault, one dirty record.
		for i := 0; i < 64; i++ {
			if err := ev.mm.Access(th, core, va+mem.VirtAddr(i*mem.PageSize), 8, true, 0); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		if ev.d.Stats.WPFaults2M != 1 {
			t.Errorf("2M WP faults = %d, want 1", ev.d.Stats.WPFaults2M)
		}
		// Touch a second region: one more.
		ev.mm.Access(th, core, va+4<<20, 8, true, 0)
		if ev.d.Stats.WPFaults2M != 2 {
			t.Errorf("2M WP faults = %d, want 2", ev.d.Stats.WPFaults2M)
		}
	})
}

func TestNoSyncDropsAllTracking(t *testing.T) {
	ev := newEnv(256, 1, Config{})
	ev.run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 8<<20)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, _ := ev.proc.Mmap(th, core, in, 0, 8<<20, mem.PermRead|mem.PermWrite, FlagNoMsync)
		for i := 0; i < 8; i++ {
			ev.mm.Access(th, core, va+mem.VirtAddr(i)<<20, 8, true, 0)
		}
		if ev.d.Stats.WPFaults2M != 0 || ev.mm.Stats.WPFaults != 0 {
			t.Errorf("nosync mode took tracking faults: %d/%d", ev.d.Stats.WPFaults2M, ev.mm.Stats.WPFaults)
		}
		if got := in.DirtyPages.Len(); got != 0 {
			t.Errorf("nosync recorded %d dirty pages", got)
		}
		// msync is a no-op.
		if err := ev.mm.Msync(th, core, va, 8<<20); err != nil {
			t.Errorf("Msync: %v", err)
		}
	})
}

func TestAsyncUnmapBatching(t *testing.T) {
	ev := newEnv(256, 2, Config{AsyncBatchPages: 64})
	ev.run(func(th *sim.Thread) {
		core := ev.cpus.Cores[0]
		core.Bind(th)
		var vas []mem.VirtAddr
		var files []*vfs.Inode
		for i := 0; i < 12; i++ {
			in := ev.mkFile(th, "f"+string(rune('a'+i)), 32<<10) // 8 pages each
			files = append(files, in)
			va, err := ev.proc.Mmap(th, core, in, 0, 32<<10, mem.PermRead, FlagEphemeral|FlagUnmapAsync)
			if err != nil {
				t.Errorf("Mmap: %v", err)
			}
			ev.mm.Access(th, core, va, 32<<10, false, 0)
			vas = append(vas, va)
		}
		flushesBefore := core.TLB.Stats.FullFlush
		// Unmap 7 mappings = 56 pages: below the 64-page batch.
		for i := 0; i < 7; i++ {
			ev.proc.Munmap(th, core, vas[i])
		}
		if ev.proc.ZombieCount() != 7 {
			t.Errorf("zombies = %d, want 7", ev.proc.ZombieCount())
		}
		// Vulnerability window: data still accessible after munmap.
		if err := ev.mm.Access(th, core, vas[0], 4096, false, 0); err != nil {
			t.Errorf("zombie access should still work: %v", err)
		}
		// The 8th unmap crosses 64 pages: one batch, one full flush.
		ev.proc.Munmap(th, core, vas[7])
		if ev.proc.ZombieCount() != 0 {
			t.Errorf("zombies after batch = %d", ev.proc.ZombieCount())
		}
		if ev.d.Stats.ZombieBatches != 1 {
			t.Errorf("batches = %d", ev.d.Stats.ZombieBatches)
		}
		if core.TLB.Stats.FullFlush != flushesBefore+1 {
			t.Errorf("full flushes = %d, want exactly one more than %d", core.TLB.Stats.FullFlush, flushesBefore)
		}
		// Now the zombie range must be gone.
		if err := ev.mm.Access(th, core, vas[0], 4096, false, 0); err == nil {
			t.Error("flushed zombie still accessible")
		}
	})
}

func TestTruncateForcesZombieUnmap(t *testing.T) {
	ev := newEnv(128, 1, Config{AsyncBatchPages: 10000})
	ev.run(func(th *sim.Thread) {
		core := ev.cpus.Cores[0]
		core.Bind(th)
		in := ev.mkFile(th, "f", 64<<10)
		va, _ := ev.proc.Mmap(th, core, in, 0, 64<<10, mem.PermRead, FlagEphemeral|FlagUnmapAsync)
		ev.mm.Access(th, core, va, 64<<10, false, 0)
		ev.proc.Munmap(th, core, va)
		if ev.proc.ZombieCount() != 1 {
			t.Error("zombie not deferred")
		}
		// Truncate must force the deferred unmap before reclaiming.
		if err := ev.fs.Truncate(th, in, 0); err != nil {
			t.Errorf("Truncate: %v", err)
		}
		if ev.proc.ZombieCount() != 0 {
			t.Error("truncate left zombies")
		}
		if ev.d.Stats.ForcedUnmaps == 0 {
			t.Error("forced unmap not recorded")
		}
		if err := ev.mm.Access(th, core, va, 4096, false, 0); err == nil {
			t.Error("translation survived truncate")
		}
	})
}

func TestEphemeralHeapReuseAndNoVMATreeGrowth(t *testing.T) {
	ev := newEnv(256, 1, Config{})
	ev.run(func(th *sim.Thread) {
		core := ev.cpus.Cores[0]
		core.Bind(th)
		in := ev.mkFile(th, "f", 32<<10)
		treeBefore := ev.mm.VMACount()
		var first mem.VirtAddr
		for i := 0; i < 100; i++ {
			va, err := ev.proc.Mmap(th, core, in, 0, 32<<10, mem.PermRead, FlagEphemeral)
			if err != nil {
				t.Errorf("Mmap %d: %v", i, err)
			}
			if i == 0 {
				first = va
			}
			ev.proc.Munmap(th, core, va)
		}
		if ev.mm.VMACount() != treeBefore {
			t.Error("ephemeral mappings leaked into the VMA tree")
		}
		if ev.proc.Heap.Live() != 0 {
			t.Errorf("heap live = %d", ev.proc.Heap.Live())
		}
		// Stack-like reuse: with sync unmaps the same VA comes back.
		va, _ := ev.proc.Mmap(th, core, in, 0, 32<<10, mem.PermRead, FlagEphemeral)
		if va != first {
			t.Errorf("heap did not reuse drained region: %#x vs %#x", va, first)
		}
		if ev.proc.Heap.Stats.RegionGrows != 1 {
			t.Errorf("region grows = %d, want 1", ev.proc.Heap.Stats.RegionGrows)
		}
	})
}

func TestEphemeralRejectsMprotect(t *testing.T) {
	ev := newEnv(128, 1, Config{})
	ev.run(func(th *sim.Thread) {
		core := ev.cpus.Cores[0]
		core.Bind(th)
		in := ev.mkFile(th, "f", 32<<10)
		va, _ := ev.proc.Mmap(th, core, in, 0, 32<<10, mem.PermRead, FlagEphemeral)
		if err := ev.proc.Mprotect(th, core, va, 32<<10, mem.PermRead|mem.PermWrite); err == nil {
			t.Error("mprotect on ephemeral mapping should fail")
		}
	})
}

func TestPrezeroPipelineAndSecurity(t *testing.T) {
	ev := newEnv(128, 2, Config{PrezeroBandwidthMBps: 8192})
	ev.d.StartPrezero(ev.engine, 1)
	ev.fs.SetTrustZeroed(true)
	ev.run(func(th *sim.Thread) {
		// Write recognizable data, delete the file, let the daemon zero.
		in := ev.mkFile(th, "secret", 1<<20)
		payload := make([]byte, 1<<20)
		for i := range payload {
			payload[i] = 0xAA
		}
		ev.fs.WriteAt(th, in, 0, payload)
		exts := ev.fs.Extents(in)
		if err := ev.fs.Unlink(th, "secret"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		in.Deleted = true
		ev.icache.Put(th, in)
		if ev.d.prezero.PendingBlocks() == 0 {
			t.Error("freed blocks not intercepted")
		}
		// Give the daemon virtual time to drain.
		th.Sleep(200_000_000)
		if ev.d.prezero.PendingBlocks() != 0 {
			t.Errorf("daemon left %d blocks pending", ev.d.prezero.PendingBlocks())
		}
		// Security: the old payload must be gone from media.
		for _, e := range exts {
			raw := make([]byte, e.Len*mem.PageSize)
			ev.dev.Peek(mem.PhysAddr(e.Phys*mem.PageSize), raw)
			for _, b := range raw {
				if b == 0xAA {
					t.Error("stale secret bytes survived pre-zeroing")
				}
			}
		}
		// Allocation now skips zeroing entirely.
		z0 := ev.fs.Stats.ZeroedBlocks
		in2 := ev.mkFile(th, "next", 1<<20)
		_ = in2
		if ev.fs.Stats.ZeroedBlocks != z0 {
			t.Errorf("allocation still zeroed %d blocks", ev.fs.Stats.ZeroedBlocks-z0)
		}
	})
}

func TestHugeChunkPromotionOnFreshImage(t *testing.T) {
	ev := newEnv(256, 1, Config{})
	ev.run(func(th *sim.Thread) {
		in, _ := ev.icache.Create(th, "big")
		if err := ev.fs.Fallocate(th, in, 0, 16<<20); err != nil {
			t.Errorf("Fallocate: %v", err)
		}
		ft := ev.d.TableOf(in)
		if ft == nil {
			t.Error("no table")
		}
		huge := 0
		for ci := range ft.chunks {
			if ft.chunks[ci].huge {
				huge++
			}
		}
		if huge < 6 {
			t.Errorf("only %d/8 chunks promoted to huge on a fresh image", huge)
		}
		// And they are usable through an attachment.
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, _ := ev.proc.Mmap(th, core, in, 0, 16<<20, mem.PermRead, 0)
		if err := ev.mm.Access(th, core, va, 16<<20, false, 0); err != nil {
			t.Errorf("Access: %v", err)
		}
		if core.TLB.Stats.Insertions > 5000 {
			t.Errorf("too many TLB fills (%d); huge entries not used", core.TLB.Stats.Insertions)
		}
	})
}

func TestPersistentTableCrashRecovery(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 128 << 20, TrackPersistence: true})
	cpus := cpu.NewSet(1)
	pool := dram.New(1 << 30)
	fs := ext4.Mkfs(ext4.Config{Dev: dev, JournalBytes: 8 << 20})
	d := New(Config{}, dev, pool, cpus, fs.Allocator(), fs)
	fs.SetHooks(d.Hooks(false))

	var descBlock uint64
	var wantExtents []vfs.Extent
	var ino vfs.Ino
	e := sim.New()
	e.Go("t", 0, 0, func(th *sim.Thread) {
		in, _ := fs.Create(th, "f")
		fs.Append(th, in, make([]byte, 1<<20))
		fs.Fsync(th, in) // journal commit fences the PTE flushes
		ft := d.TableOf(in)
		if ft == nil || !ft.Persistent {
			t.Errorf("expected persistent table")
			return
		}
		descBlock = ft.descBlock
		wantExtents = fs.Extents(in)
		ino = in.Ino
	})
	e.Run()

	dev.Crash()

	e2 := sim.New()
	e2.Go("recover", 0, 0, func(th *sim.Thread) {
		ft, err := RecoverFileTable(th, d, ino, descBlock)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		// Every file block must resolve through the recovered table.
		for _, ext := range wantExtents {
			for b := uint64(0); b < ext.Len; b++ {
				fb := ext.File + b
				ci := int(fb / 512)
				idx := int(fb % 512)
				c := &ft.chunks[ci]
				var pfn mem.PFN
				switch {
				case c.huge:
					pfn = c.hugePFN + mem.PFN(idx)
				case c.node != nil:
					pfn = c.node.Entries[idx].PFN()
				default:
					t.Errorf("chunk %d missing after recovery", ci)
					return
				}
				if pfn != mem.PFN(ext.Phys+b) {
					t.Errorf("block %d: recovered PFN %d, want %d", fb, pfn, ext.Phys+b)
					return
				}
			}
		}
	})
	e2.Run()
}

func TestMonitorMigratesHotPMemTables(t *testing.T) {
	ev := newEnv(256, 1, Config{MonitorEnabled: true})
	NewMonitor(ev.proc, ev.engine, 0)
	ev.run(func(th *sim.Thread) {
		// Interleave a padding file so the big file's chunks are never
		// physically contiguous: no huge promotion, PMem PTE nodes get
		// exercised by every walk (a fragmented-image stand-in).
		in := ev.mkFile(th, "f", 4096)
		pad, _ := ev.icache.Create(th, "pad")
		for i := 0; i < 128; i++ {
			ev.fs.Append(th, in, make([]byte, 512<<10))
			ev.fs.Append(th, pad, make([]byte, 4096))
		}
		core := ev.cpus.Cores[0]
		core.Bind(th)
		size := in.Size
		va, _ := ev.proc.Mmap(th, core, in, 0, size, mem.PermRead, FlagNoMsync)
		ft := ev.d.TableOf(in)
		if !ft.Persistent {
			t.Error("expected persistent table")
		}
		// Random 4K touches defeat the TLB and the PTE-line cache, so
		// walks hit PMem nodes hard.
		rng := uint64(12345)
		accessible := size &^ (mem.HugeSize - 1) // whole chunks only
		for i := 0; i < 120_000; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			off := (rng >> 12) % accessible
			off &^= mem.PageSize - 1
			if err := ev.mm.Access(th, core, va+mem.VirtAddr(off), 8, false, 0); err != nil {
				t.Errorf("access: %v", err)
			}
			if i%1000 == 0 {
				th.Yield() // let the monitor daemon sample
			}
		}
		if ev.d.Stats.Migrations == 0 {
			t.Errorf("monitor never migrated (avg walk sample irrelevant; PMem walks=%d)", core.Stats.PMemWalks)
		}
		if !ft.Migrated {
			t.Error("table not marked migrated")
		}
		// Post-migration accesses must keep working.
		if err := ev.mm.Access(th, core, va, 1<<20, false, 0); err != nil {
			t.Errorf("post-migration access: %v", err)
		}
	})
}
