// Package kernel assembles the simulated machine: PMem device, cores,
// DRAM pool, a mounted file system (ext4-DAX or NOVA, optionally aged),
// the DaxVM extension, processes with their memory managers, and a
// POSIX-ish system-call surface that charges user/kernel crossing costs.
package kernel

import (
	"fmt"

	"daxvm/internal/core"
	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/dram"
	"daxvm/internal/fs/agefs"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/nova"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// FSKind selects the file-system model.
type FSKind string

const (
	// Ext4 is ext4-DAX (the paper's default).
	Ext4 FSKind = "ext4-dax"
	// Nova is NOVA in relaxed mode.
	Nova FSKind = "nova"
)

// Config describes the machine.
type Config struct {
	// Cores is the number of hardware threads (the paper's socket has 16).
	Cores int
	// Nodes is the number of NUMA nodes (sockets). Default 1 keeps the
	// flat single-node machine; >1 splits DRAM, PMem DIMMs and cores
	// evenly across nodes.
	Nodes int
	// CoresPerNode overrides the contiguous-block core->node split
	// (default Cores/Nodes).
	CoresPerNode int
	// Placement is the default page/table placement policy for processes:
	// "", "local", "interleave" or "bind:<n>".
	Placement string
	// MountPlacement steers the file system's block allocator and
	// DaxVM's table placement (same syntax as Placement).
	MountPlacement string
	// DeviceBytes is PMem capacity (default 4 GiB).
	DeviceBytes uint64
	// DRAMBytes is volatile capacity (default 8 GiB).
	DRAMBytes uint64
	// FS picks the file-system model (default ext4-DAX).
	FS FSKind
	// Age runs Geriatrix-style churn at boot.
	Age bool
	// AgeConfig overrides the default aging recipe.
	AgeConfig *agefs.Config
	// DaxVM enables the DaxVM extension.
	DaxVM bool
	// DaxVMConfig tunes it.
	DaxVMConfig core.Config
	// Prezero starts the asynchronous block pre-zeroing daemon
	// (requires DaxVM).
	Prezero bool
	// Monitor starts the MMU performance monitor per process.
	Monitor bool
	// ICacheCapacity bounds the inode cache (default 64k).
	ICacheCapacity int
	// TrackPersistence enables crash simulation.
	TrackPersistence bool
	// HugePages toggles baseline DAX huge-page support (default on).
	HugePagesOff bool
	// Obs, when set, receives every subsystem's counters, latency
	// histograms and trace events. May be shared across sequentially
	// booted kernels (counter readers are re-registered; the trace ring
	// accumulates).
	Obs *obs.Obs
	// Timeline, when set, rides a zero-cost sampler daemon on every
	// engine this kernel runs (aging, setup, measured) and brackets each
	// run with a flush, so per-interval cycle deltas reconcile exactly
	// against the engines' TotalCharged. Shared across sequentially
	// booted kernels the same way Obs is.
	Timeline *timeline.Timeline
	// Spans, when set, opens a causal span per top-level operation
	// (syscalls, faults, data-path accesses, journal commits, NOVA log
	// appends, TLB shootdowns) on every engine this kernel runs, with
	// typed wait kinds and self-time that reconciles exactly against
	// the cycle account. Shared across sequentially booted kernels the
	// same way Obs is.
	Spans *span.Collector
	// Sched selects the virtual-time scheduler: SchedSeq (default) is
	// the sequential reference, SchedShard the sharded scheduler that
	// offloads observability to host workers. Artifacts are
	// byte-identical either way (enforced by make sched-gate).
	Sched string
	// Shards is the shard count for SchedShard (default min(4, Cores)).
	Shards int
}

// Scheduler selector values for Config.Sched.
const (
	SchedSeq   = "seq"
	SchedShard = "shard"
)

// newEngine builds a virtual-time engine per the config's scheduler
// selection. Every engine a kernel runs (aging, setup, measured) goes
// through here so a -sched choice applies to the whole boot.
func (c Config) newEngine() *sim.Engine {
	if c.Sched == SchedShard {
		return sim.NewSharded(c.Shards, c.Cores)
	}
	return sim.New()
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 16
	}
	if c.DeviceBytes == 0 {
		c.DeviceBytes = 4 << 30
	}
	if c.DRAMBytes == 0 {
		c.DRAMBytes = 8 << 30
	}
	if c.FS == "" {
		c.FS = Ext4
	}
	if c.ICacheCapacity == 0 {
		c.ICacheCapacity = 1 << 16
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = c.Cores / c.Nodes
		if c.CoresPerNode == 0 {
			c.CoresPerNode = 1
		}
	}
	if c.Sched == "" {
		c.Sched = SchedSeq
	}
	if c.Shards == 0 {
		// Deterministic default — never derived from the host (a
		// host-core-count default would make artifact bytes depend on
		// the machine if shard count ever leaked into behaviour; it
		// must not, but the default should not tempt fate either).
		c.Shards = 4
		if c.Cores < 4 {
			c.Shards = c.Cores
		}
	}
	return c
}

// MountedFS is the common surface of both FS models.
type MountedFS interface {
	vfs.FS
	SetAgingMode(on bool)
	SetHooks(h *vfs.Hooks)
	SetTrustZeroed(on bool)
}

// Kernel is the booted machine.
type Kernel struct {
	Cfg    Config
	Engine *sim.Engine
	Topo   *topo.Topology
	Dev    *pmem.Device
	Cpus   *cpu.Set
	Pool   *dram.Pool
	FS     MountedFS
	ICache *vfs.ICache
	Dax    *core.DaxVM
	Obs    *obs.Obs

	AgeReport agefs.Report

	procs     []*Proc
	monitors  []*core.Monitor
	placement topo.Policy   // default per-process policy
	engines   []*sim.Engine // every engine this kernel attached (main + aging + setup), for run-queue gauges

	// shared latency histograms (registered once, fed by every core/proc)
	walkHist  *obs.Histogram
	faultHist *obs.Histogram
}

// Boot builds the machine, formats (and optionally ages) the image, and
// wires DaxVM.
func Boot(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	tp := topo.New(cfg.Nodes, cfg.CoresPerNode)
	k := &Kernel{
		Cfg:    cfg,
		Engine: cfg.newEngine(),
		Topo:   tp,
		Dev:    pmem.New(pmem.Config{Size: cfg.DeviceBytes, TrackPersistence: cfg.TrackPersistence, Topo: tp}),
		Cpus:   cpu.NewSet(cfg.Cores),
		Pool:   dram.NewNUMA(cfg.DRAMBytes, tp),
	}
	k.Cpus.SetTopology(tp)
	k.placement = topo.MustParsePolicy(cfg.Placement)
	k.Cpus.Spans = cfg.Spans

	switch cfg.FS {
	case Nova:
		f := nova.Mkfs(nova.Config{Dev: k.Dev})
		f.Spans = cfg.Spans
		k.FS = &novaFS{f}
	default:
		f := ext4.Mkfs(ext4.Config{Dev: k.Dev, JournalBytes: 128 << 20})
		f.Journal().SetSpans(cfg.Spans)
		k.FS = &ext4FS{f}
	}

	if tp.Multi() {
		mp := topo.MustParsePolicy(cfg.MountPlacement)
		a := k.allocator()
		a.SetPlacement(tp, mp, a.TotalBlocks()/uint64(tp.Nodes()))
	}

	var hooks *vfs.Hooks
	if cfg.DaxVM {
		k.Dax = core.New(cfg.DaxVMConfig, k.Dev, k.Pool, k.Cpus, k.allocator(), k.releaser())
		if tp.Multi() {
			k.Dax.SetPlacement(topo.MustParsePolicy(cfg.MountPlacement))
		}
		hooks = k.Dax.Hooks(cfg.Prezero)
		k.FS.SetHooks(hooks)
		if cfg.Prezero {
			k.Dax.StartPrezero(k.Engine, cfg.Cores-1)
			k.FS.SetTrustZeroed(true)
		}
	}
	k.ICache = vfs.NewICache(k.FS, cfg.ICacheCapacity, hooks)

	if cfg.Obs != nil {
		k.wireObs(cfg.Obs)
	} else {
		// No hub, but a timeline sampler may still ride the main engine.
		k.attachEngine(k.Engine)
	}
	if cfg.Timeline != nil {
		k.registerGauges(cfg.Timeline)
	}

	if cfg.Age {
		ac := agefs.DefaultConfig()
		if cfg.AgeConfig != nil {
			ac = *cfg.AgeConfig
		}
		setup := cfg.newEngine()
		k.attachEngine(setup)
		setup.Go("ager", 0, 0, func(t *sim.Thread) {
			t.PushAttr("setup.age")
			rep, err := agefs.Age(t, agingSurface{k.FS}, ac)
			if err != nil {
				panic(err)
			}
			k.AgeReport = rep
		})
		k.runEngine("age", setup)
		k.Dev.ResetTiming()
	}
	return k
}

// Setup runs fn on a dedicated setup engine thread (corpus creation etc.)
// and resets device timing afterwards so measurement starts clean. Setup
// work books under the "setup" attribution root, and the ephemeral engine
// registers with the hub so attributed cycles still reconcile.
func (k *Kernel) Setup(fn func(t *sim.Thread)) {
	e := k.Cfg.newEngine()
	k.attachEngine(e)
	e.Go("setup", 0, 0, func(t *sim.Thread) {
		t.PushAttr("setup")
		fn(t)
	})
	k.runEngine("setup", e)
	k.Dev.ResetTiming()
}

// attachEngine routes an auxiliary engine's charges into the hub's cycle
// account and span collector, and rides the timeline sampler daemon on
// it.
func (k *Kernel) attachEngine(e *sim.Engine) {
	k.engines = append(k.engines, e)
	if k.Obs != nil && k.Obs.Cycles != nil {
		e.SetChargeSink(k.Obs.Cycles.Book)
		// Bulk form for the sharded scheduler's workers; the sequential
		// scheduler ignores it and calls the plain sink per charge.
		e.SetChargeBulkSink(k.Obs.Cycles.BookN)
	}
	if sp := k.Cfg.Spans; sp != nil {
		e.SetChargeObserver(sp.Observe)
		e.SetObsApplier(sp.Apply)
	}
	if tl := k.Cfg.Timeline; tl != nil {
		e.GoSampler("timeline", 0, tl.NextWake, tl.Sample)
	}
}

// runEngine runs an engine registered with the hub for reconciliation and
// speed telemetry, then folds its totals into the hub and lets the span
// collector forget its finished threads, so shared observers keep no
// reference to the kernel. A timeline flush brackets the run so the tail
// interval (and the run's span mark) lands before the next run starts.
func (k *Kernel) runEngine(label string, e *sim.Engine) uint64 {
	fold := k.Obs.AddEngine(e.TotalCharged, e.Events)
	end := e.Run()
	fold()
	k.Cfg.Spans.ForgetIdle()
	if tl := k.Cfg.Timeline; tl != nil {
		tl.FlushRun(label, end)
	}
	return end
}

// Run executes the main engine until all spawned workload threads finish,
// returning the final virtual time in cycles.
func (k *Kernel) Run() uint64 { return k.runEngine("run", k.Engine) }

// allocator exposes the data-block allocator for DaxVM metadata.
func (k *Kernel) allocator() *alloc.Allocator {
	switch f := k.FS.(type) {
	case *ext4FS:
		return f.FS.Allocator()
	case *novaFS:
		return f.FS.Allocator()
	}
	panic("kernel: unknown FS")
}

func (k *Kernel) releaser() core.ZeroReleaser {
	switch f := k.FS.(type) {
	case *ext4FS:
		return f.FS
	case *novaFS:
		return f.FS
	}
	panic("kernel: unknown FS")
}

// Proc is a simulated process.
type Proc struct {
	K   *Kernel
	MM  *mm.MM
	Dax *core.Proc

	fds    map[int]FileDesc // by value: opening a file allocates nothing
	nextFD int
}

// FileDesc is an open file description.
type FileDesc struct {
	In  *vfs.Inode
	Pos uint64
}

// NewProc creates a process able to run on every core of the machine.
func (k *Kernel) NewProc() *Proc {
	p := &Proc{K: k, fds: make(map[int]FileDesc), nextFD: 3}
	p.MM = mm.New(k.Pool, k.FS, k.Cpus)
	if k.Topo.Multi() {
		p.MM.SetPlacement(k.placement)
	}
	if k.Cfg.HugePagesOff {
		p.MM.HugePagesEnabled = false
	}
	for _, c := range k.Cpus.Cores {
		p.MM.RunOn(c)
	}
	if k.Dax != nil {
		p.Dax = k.Dax.NewProc(p.MM)
		if k.Cfg.Monitor {
			k.monitors = append(k.monitors, core.NewMonitor(p.Dax, k.Engine, 0))
		}
	}
	if k.Obs != nil {
		p.MM.Trace = k.Obs.Trace
		p.MM.FaultHist = k.faultHist
	}
	p.MM.Spans = k.Cfg.Spans
	if k.Obs != nil || k.Cfg.Spans != nil {
		tr := p.MM.Trace
		sp := k.Cfg.Spans
		p.MM.Sem.OnContended = func(t *sim.Thread, kind string, waitStart, blocked uint64) {
			// Precomposed tags: this closure runs on the contended fault
			// path, where a concat would allocate per event.
			tag := "mmap_sem/read"
			if kind == "write" {
				tag = "mmap_sem/write"
			}
			tr.Emit(obs.EvLockContention, t.Core, waitStart, t.Now()-waitStart, tag, 0)
			sp.Wait(t, span.WaitMmapSem, blocked)
		}
	}
	k.procs = append(k.procs, p)
	return p
}

// Spawn starts a workload thread of this process pinned to a core. All of
// the thread's work books under the "app" attribution root.
func (p *Proc) Spawn(name string, coreID int, start uint64, fn func(t *sim.Thread, c *cpu.Core)) {
	c := p.K.Cpus.Cores[coreID]
	p.K.Engine.Go(name, coreID, start, func(t *sim.Thread) {
		t.PushAttr("app")
		c.Bind(t)
		fn(t, c)
	})
}

// --- system calls -----------------------------------------------------------

// sysEnter opens the syscall's attribution frame and span (cls is
// "syscall.<name>", nested under the thread's current path) and charges
// the entry crossing; the returned func charges the exit crossing and
// closes both. Use as `defer p.sysEnter(t, "syscall.open")(p, t)`. The
// returned literal captures nothing, so it is a static func value and a
// syscall's entry and exit allocate nothing.
func (p *Proc) sysEnter(t *sim.Thread, cls string) func(*Proc, *sim.Thread) {
	t.PushAttr(cls)
	p.K.Cfg.Spans.Begin(t, cls)
	t.Charge(cost.UserKernelCrossing + cost.SyscallDispatch)
	return func(p *Proc, t *sim.Thread) {
		t.Charge(cost.UserKernelCrossing)
		p.K.Cfg.Spans.End(t)
		t.PopAttr()
	}
}

// Open opens an existing file.
func (p *Proc) Open(t *sim.Thread, path string) (int, error) {
	defer p.sysEnter(t, "syscall.open")(p, t)
	t.Charge(cost.OpenPath)
	in, err := p.K.ICache.Open(t, path)
	if err != nil {
		return -1, err
	}
	t.Charge(cost.FDTableOp)
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = FileDesc{In: in}
	return fd, nil
}

// Create makes and opens a new file.
func (p *Proc) Create(t *sim.Thread, path string) (int, error) {
	defer p.sysEnter(t, "syscall.create")(p, t)
	t.Charge(cost.OpenPath)
	in, err := p.K.ICache.Create(t, path)
	if err != nil {
		return -1, err
	}
	t.Charge(cost.FDTableOp)
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = FileDesc{In: in}
	return fd, nil
}

// Close drops the descriptor.
func (p *Proc) Close(t *sim.Thread, fd int) error {
	defer p.sysEnter(t, "syscall.close")(p, t)
	t.Charge(cost.CloseFixed)
	f, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: bad fd %d", fd)
	}
	delete(p.fds, fd)
	p.K.ICache.Put(t, f.In)
	return nil
}

// Inode returns the inode behind fd (workload plumbing).
func (p *Proc) Inode(fd int) *vfs.Inode { return p.fds[fd].In }

// Read reads from the current position.
func (p *Proc) Read(t *sim.Thread, fd int, buf []byte) (uint64, error) {
	defer p.sysEnter(t, "syscall.read")(p, t)
	t.Charge(cost.ReadWriteFixed)
	f, ok := p.fds[fd]
	if !ok {
		return 0, fmt.Errorf("kernel: bad fd %d", fd)
	}
	n, err := p.K.FS.ReadAt(t, f.In, f.Pos, buf)
	// Advance the descriptor's position as it is now: another thread may
	// have moved it, or closed the descriptor, while the read ran.
	if g, ok := p.fds[fd]; ok {
		g.Pos += n
		p.fds[fd] = g
	}
	return n, err
}

// ReadAt reads at an absolute offset.
func (p *Proc) ReadAt(t *sim.Thread, fd int, off uint64, buf []byte) (uint64, error) {
	defer p.sysEnter(t, "syscall.pread")(p, t)
	t.Charge(cost.ReadWriteFixed)
	f, ok := p.fds[fd]
	if !ok {
		return 0, fmt.Errorf("kernel: bad fd %d", fd)
	}
	return p.K.FS.ReadAt(t, f.In, off, buf)
}

// Append writes at end of file.
func (p *Proc) Append(t *sim.Thread, fd int, data []byte) error {
	defer p.sysEnter(t, "syscall.append")(p, t)
	t.Charge(cost.ReadWriteFixed)
	f, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: bad fd %d", fd)
	}
	return p.K.FS.Append(t, f.In, data)
}

// WriteAt overwrites existing bytes.
func (p *Proc) WriteAt(t *sim.Thread, fd int, off uint64, data []byte) error {
	defer p.sysEnter(t, "syscall.pwrite")(p, t)
	t.Charge(cost.ReadWriteFixed)
	f, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: bad fd %d", fd)
	}
	return p.K.FS.WriteAt(t, f.In, off, data)
}

// Fallocate reserves blocks.
func (p *Proc) Fallocate(t *sim.Thread, fd int, off, n uint64) error {
	defer p.sysEnter(t, "syscall.fallocate")(p, t)
	f, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: bad fd %d", fd)
	}
	return p.K.FS.Fallocate(t, f.In, off, n)
}

// Ftruncate resizes.
func (p *Proc) Ftruncate(t *sim.Thread, fd int, size uint64) error {
	defer p.sysEnter(t, "syscall.ftruncate")(p, t)
	f, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: bad fd %d", fd)
	}
	return p.K.FS.Truncate(t, f.In, size)
}

// Fsync commits the file.
func (p *Proc) Fsync(t *sim.Thread, fd int) error {
	defer p.sysEnter(t, "syscall.fsync")(p, t)
	f, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: bad fd %d", fd)
	}
	p.K.FS.Fsync(t, f.In)
	return nil
}

// Unlink removes a file.
func (p *Proc) Unlink(t *sim.Thread, path string) error {
	defer p.sysEnter(t, "syscall.unlink")(p, t)
	ino, err := p.K.FS.LookupPath(t, path)
	if err != nil {
		return err
	}
	if err := p.K.FS.Unlink(t, path); err != nil {
		return err
	}
	if in, ok := p.K.ICache.Get(ino); ok {
		in.Deleted = true
		if in.Refs == 0 {
			// Nothing holds it: reclaim now via a ref cycle.
			in.Refs = 1
			p.K.ICache.Put(t, in)
		}
	}
	return nil
}

// Mmap is the POSIX mmap(2) path.
func (p *Proc) Mmap(t *sim.Thread, c *cpu.Core, fd int, off, length uint64, perm mem.Perm, flags mm.MapFlags) (mem.VirtAddr, error) {
	defer p.sysEnter(t, "syscall.mmap")(p, t)
	f, ok := p.fds[fd]
	if !ok {
		return 0, fmt.Errorf("kernel: bad fd %d", fd)
	}
	f.In.Refs++ // the mapping holds the inode
	va, err := p.MM.Mmap(t, c, f.In, off, length, perm, flags)
	if err != nil {
		f.In.Refs--
	}
	return va, err
}

// Munmap is munmap(2).
func (p *Proc) Munmap(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, length uint64) error {
	defer p.sysEnter(t, "syscall.munmap")(p, t)
	// Identify the inode to drop the mapping reference. Read it now: the
	// unmapped VMA goes back to mm for reuse.
	var in *vfs.Inode
	p.MM.Sem.RLock(t, 0)
	if v := p.MM.FindVMA(t, va); v != nil {
		in = v.Inode
	}
	p.MM.Sem.RUnlock(t, 0)
	err := p.MM.Munmap(t, c, va, length)
	if err == nil && in != nil {
		p.K.ICache.Put(t, in)
	}
	return err
}

// Msync is msync(2).
func (p *Proc) Msync(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, length uint64) error {
	defer p.sysEnter(t, "syscall.msync")(p, t)
	return p.MM.Msync(t, c, va, length)
}

// Mprotect is mprotect(2).
func (p *Proc) Mprotect(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, length uint64, perm mem.Perm) error {
	defer p.sysEnter(t, "syscall.mprotect")(p, t)
	if p.Dax != nil {
		p.MM.Sem.RLock(t, 0)
		v := p.MM.FindVMA(t, va)
		p.MM.Sem.RUnlock(t, 0)
		if v != nil && v.DaxVM {
			return p.Dax.Mprotect(t, c, va, length, perm)
		}
	}
	return p.MM.Mprotect(t, c, va, length, perm)
}

// DaxvmMmap is daxvm_mmap(2).
func (p *Proc) DaxvmMmap(t *sim.Thread, c *cpu.Core, fd int, off, length uint64, perm mem.Perm, flags core.Flags) (mem.VirtAddr, error) {
	defer p.sysEnter(t, "syscall.daxvm_mmap")(p, t)
	if p.Dax == nil {
		return 0, fmt.Errorf("kernel: DaxVM not enabled")
	}
	f, ok := p.fds[fd]
	if !ok {
		return 0, fmt.Errorf("kernel: bad fd %d", fd)
	}
	f.In.Refs++
	va, err := p.Dax.Mmap(t, c, f.In, off, length, perm, flags)
	if err != nil {
		f.In.Refs--
	}
	return va, err
}

// DaxvmMunmap is daxvm_munmap(2).
func (p *Proc) DaxvmMunmap(t *sim.Thread, c *cpu.Core, va mem.VirtAddr) error {
	defer p.sysEnter(t, "syscall.daxvm_munmap")(p, t)
	p.MM.Sem.RLock(t, 0)
	v := p.MM.FindVMA(t, va)
	p.MM.Sem.RUnlock(t, 0)
	err := p.Dax.Munmap(t, c, va)
	if err == nil && v != nil && v.Inode != nil {
		p.K.ICache.Put(t, v.Inode)
	}
	return err
}

// --- user-space access helpers ----------------------------------------------

// AccessKind selects the data-cost model for touching mapped memory.
type AccessKind uint8

const (
	// KindSum: streaming 8-byte reads straight from PMem (checksum, text
	// search).
	KindSum AccessKind = iota
	// KindCopyOut: memcpy from PMem into a DRAM buffer/socket (AVX).
	KindCopyOut
	// KindNTWrite: non-temporal stores to PMem (user-managed
	// durability).
	KindNTWrite
	// KindCachedWrite: regular stores (kernel-synced durability).
	KindCachedWrite
)

func (k AccessKind) perPage() uint64 {
	switch k {
	case KindCopyOut:
		return cost.UserCopyPMemPerPage
	case KindNTWrite:
		return cost.NTStorePMemPerPage
	case KindCachedWrite:
		return cost.CacheHitLatency * 64
	default:
		return cost.UserLoadPMemPerPage
	}
}

func (k AccessKind) isWrite() bool { return k == KindNTWrite || k == KindCachedWrite }

// AccessMapped touches [va, va+n) from user space with the kind's data
// cost: translation, faults, payload cycles AND shared device-channel
// occupancy (DAX loads/stores cross the DIMM channel even without a
// kernel copy).
func (p *Proc) AccessMapped(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, n uint64, kind AccessKind) error {
	t.PushAttr("access")
	defer t.PopAttr()
	sp := p.K.Cfg.Spans
	sp.Begin(t, "access")
	defer sp.End(t)
	if err := p.MM.Access(t, c, va, n, kind.isWrite(), kind.perPage()); err != nil {
		return err
	}
	dev := p.K.Dev
	multi := dev.NodeCount() > 1
	var off uint64
	for rem := n; rem > 0; {
		chunk := rem
		if chunk > 64<<10 {
			chunk = 64 << 10
		}
		if multi {
			// Route channel occupancy to the bank actually backing this
			// chunk, so remote traffic contends on the remote node's DIMMs.
			node, ok := p.MM.NodeOfMapped(va + mem.VirtAddr(off))
			if !ok {
				node = 0
			}
			if kind.isWrite() {
				dev.BWWriteOn(t, node, chunk)
			} else {
				dev.BWReadOn(t, node, chunk)
			}
		} else if kind.isWrite() {
			dev.BWWrite(t, chunk)
		} else {
			dev.BWRead(t, chunk)
		}
		rem -= chunk
		off += chunk
	}
	return nil
}

// ConsumeBuffer models user code scanning an n-byte DRAM buffer it just
// read() (hot in cache).
func ConsumeBuffer(t *sim.Thread, n uint64) {
	t.ChargeAs("consume", cost.UserLoadDRAMPerPage*(n+mem.PageSize-1)/mem.PageSize)
}

// --- FS adapters --------------------------------------------------------------

type ext4FS struct{ *ext4.FS }

func (f *ext4FS) SetHooks(h *vfs.Hooks) { f.FS.SetHooks(h) }

type novaFS struct{ *nova.FS }

func (f *novaFS) SetHooks(h *vfs.Hooks) { f.FS.SetHooks(h) }

// agingSurface adapts MountedFS to agefs.FS.
type agingSurface struct{ MountedFS }
