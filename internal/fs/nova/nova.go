// Package nova models the NOVA file system (relaxed mode): log-structured
// per-inode metadata committed synchronously and in place, which makes the
// MAP_SYNC interface a no-op; the write(2) path does NOT zero new blocks
// (it overwrites them with the payload), but fallocate for DAX mapping
// MUST zero — the asymmetry Fig. 7 (NOVA) exposes.
package nova

import (
	"fmt"
	"sort"

	"daxvm/internal/cost"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/obs/span"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

type inode struct {
	ino             vfs.Ino
	size            uint64
	extents         []vfs.Extent
	mu              *sim.Mutex
	allocatedBlocks uint64
}

// Config controls mkfs.
type Config struct {
	Dev *pmem.Device
	// TrustZeroed enables the DaxVM pre-zeroing extension.
	TrustZeroed bool
	Hooks       *vfs.Hooks
}

// FS is a NOVA instance.
type FS struct {
	dev         *pmem.Device
	alloc       *alloc.Allocator
	hooks       *vfs.Hooks
	trustZeroed bool
	agingMode   bool

	dir     map[string]vfs.Ino
	inodes  map[vfs.Ino]*inode
	nextIno vfs.Ino
	dirLock sim.SpinLock

	// Spans, when set, opens a causal span per synchronous log append
	// (nil = disabled).
	Spans *span.Collector

	logArea mem.PhysAddr
	logOff  uint64
	logCap  uint64

	Stats FSStats
}

// FSStats counts data-path activity.
type FSStats struct {
	LogAppends   uint64
	ZeroedBlocks uint64
	SkippedZero  uint64
}

const logBytes = 64 << 20

// Mkfs formats the device. The metadata-log area is 64 MiB or 1/16 of the
// device, whichever is smaller.
func Mkfs(cfg Config) *FS {
	lb := uint64(logBytes)
	if lb > cfg.Dev.Size()/16 {
		lb = cfg.Dev.Size() / 16
	}
	firstData := vfs.BytesToBlocks(lb)
	total := cfg.Dev.Size() / mem.PageSize
	return &FS{
		dev:         cfg.Dev,
		alloc:       alloc.New(firstData, total-firstData, true),
		hooks:       cfg.Hooks,
		trustZeroed: cfg.TrustZeroed,
		dir:         make(map[string]vfs.Ino),
		inodes:      make(map[vfs.Ino]*inode),
		nextIno:     2,
		logCap:      lb,
	}
}

// Name implements vfs.FS.
func (f *FS) Name() string { return "nova" }

// Device implements vfs.FS.
func (f *FS) Device() *pmem.Device { return f.dev }

// Allocator exposes the allocator for the pre-zero daemon and aging.
func (f *FS) Allocator() *alloc.Allocator { return f.alloc }

// SetHooks installs (or replaces) the DaxVM extension hooks.
func (f *FS) SetHooks(h *vfs.Hooks) { f.hooks = h }

// SetAgingMode toggles fast image-churn setup.
func (f *FS) SetAgingMode(on bool) { f.agingMode = on }

// SetTrustZeroed enables the pre-zeroing extension.
func (f *FS) SetTrustZeroed(on bool) { f.trustZeroed = on }

// logAppend models one synchronous metadata log entry: an nt-stored,
// fenced record. This is why NOVA needs no MAP_SYNC faults.
func (f *FS) logAppend(t *sim.Thread) {
	f.Spans.Begin(t, "nova.log_append")
	defer f.Spans.End(t)
	f.Stats.LogAppends++
	t.ChargeAs("log_append", cost.NovaLogAppend)
	if f.logOff+mem.CacheLineSize > f.logCap {
		f.logOff = 0
	}
	f.dev.StreamNT(t, f.logArea+mem.PhysAddr(f.logOff), mem.CacheLineSize)
	f.logOff += mem.CacheLineSize
	f.dev.Fence(t)
}

// Create implements vfs.FS.
func (f *FS) Create(t *sim.Thread, path string) (*vfs.Inode, error) {
	f.dirLock.Lock(t, cost.SpinLockAcquire)
	if _, exists := f.dir[path]; exists {
		f.dirLock.Unlock(t, cost.SpinLockRelease)
		return nil, vfs.ErrExists
	}
	ino := f.nextIno
	f.nextIno++
	f.dir[path] = ino
	f.dirLock.Unlock(t, cost.SpinLockRelease)
	di := &inode{ino: ino, mu: sim.NewMutex(cost.SchedWakeup)}
	f.inodes[ino] = di
	f.logAppend(t)
	return f.newVFS(di, path), nil
}

func (f *FS) newVFS(di *inode, path string) *vfs.Inode {
	return &vfs.Inode{
		Ino:     di.ino,
		Path:    path,
		Size:    di.size,
		Priv:    di,
		Mappers: make(map[any]func(*sim.Thread, any)),
	}
}

// LookupPath implements vfs.FS.
func (f *FS) LookupPath(t *sim.Thread, path string) (vfs.Ino, error) {
	t.ChargeAs("path_lookup", cost.PathLookupPerCmp)
	ino, ok := f.dir[path]
	if !ok {
		return 0, vfs.ErrNotFound
	}
	return ino, nil
}

// LoadInode implements vfs.FS: NOVA replays the inode log on a cold open.
func (f *FS) LoadInode(t *sim.Thread, ino vfs.Ino) (*vfs.Inode, error) {
	di, ok := f.inodes[ino]
	if !ok {
		return nil, vfs.ErrNotFound
	}
	t.ChargeAs("inode_load", cost.PMemLoadLatency+cost.PMemSeqLoadLat*uint64(1+len(di.extents)/32))
	return f.newVFS(di, ""), nil
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(t *sim.Thread, path string) error {
	f.dirLock.Lock(t, cost.SpinLockAcquire)
	_, ok := f.dir[path]
	if !ok {
		f.dirLock.Unlock(t, cost.SpinLockRelease)
		return vfs.ErrNotFound
	}
	delete(f.dir, path)
	f.dirLock.Unlock(t, cost.SpinLockRelease)
	f.logAppend(t)
	return nil
}

func (f *FS) ensureBlocks(t *sim.Thread, in *vfs.Inode, di *inode, blocks uint64, zeroNew bool) error {
	if blocks <= di.allocatedBlocks {
		return nil
	}
	runs := f.alloc.Alloc(t, blocks-di.allocatedBlocks)
	if runs == nil {
		return vfs.ErrNoSpace
	}
	newExt := make([]vfs.Extent, 0, len(runs))
	fb := di.allocatedBlocks
	for _, r := range runs {
		if zeroNew && !f.agingMode {
			if r.Zeroed && f.trustZeroed {
				f.Stats.SkippedZero += r.Len
			} else {
				f.dev.Zero(t, mem.PhysAddr(r.Start*mem.PageSize), r.Len*mem.PageSize)
				f.Stats.ZeroedBlocks += r.Len
			}
		}
		newExt = append(newExt, vfs.Extent{File: fb, Phys: r.Start, Len: r.Len})
		fb += r.Len
	}
	di.extents = append(di.extents, newExt...)
	di.allocatedBlocks = fb
	f.logAppend(t) // metadata committed synchronously: no MetaDirty, ever
	if f.hooks != nil && f.hooks.OnAlloc != nil {
		f.hooks.OnAlloc(t, in, newExt)
	}
	return nil
}

// Append implements vfs.FS. NOVA does not zero on the write path: the
// payload itself initializes the new blocks.
func (f *FS) Append(t *sim.Thread, in *vfs.Inode, data []byte) error {
	di := in.Priv.(*inode)
	di.mu.Lock(t, cost.SemAcquireFast)
	defer di.mu.Unlock(t, cost.SemReleaseFast)
	off := di.size
	if err := f.ensureBlocks(t, in, di, vfs.BytesToBlocks(off+uint64(len(data))), false); err != nil {
		return err
	}
	if !f.agingMode {
		f.copyToMedia(t, di, off, data)
	}
	di.size = off + uint64(len(data))
	in.Size = di.size
	f.logAppend(t)
	return nil
}

// WriteAt implements vfs.FS (relaxed mode: in-place update).
func (f *FS) WriteAt(t *sim.Thread, in *vfs.Inode, off uint64, data []byte) error {
	di := in.Priv.(*inode)
	if off+uint64(len(data)) > di.allocatedBlocks*mem.PageSize {
		return vfs.ErrBadOffset
	}
	f.copyToMedia(t, di, off, data)
	if end := off + uint64(len(data)); end > di.size {
		di.size = end
		in.Size = end
		f.logAppend(t)
	}
	return nil
}

func (f *FS) copyToMedia(t *sim.Thread, di *inode, off uint64, data []byte) {
	for len(data) > 0 {
		phys, run := f.physRun(di, off)
		if run == 0 {
			panic(fmt.Sprintf("nova: write hole at %d", off))
		}
		n := run
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		f.dev.WriteNT(t, mem.PhysAddr(phys), data[:n])
		data = data[n:]
		off += n
	}
	f.dev.Fence(t)
}

func (f *FS) physRun(di *inode, off uint64) (uint64, uint64) {
	fb := off / mem.PageSize
	i := sort.Search(len(di.extents), func(i int) bool { return di.extents[i].End() > fb })
	if i == len(di.extents) || fb < di.extents[i].File {
		return 0, 0
	}
	e := di.extents[i]
	inExt := off - e.File*mem.PageSize
	return e.Phys*mem.PageSize + inExt, e.Len*mem.PageSize - inExt
}

// ReadAt implements vfs.FS.
func (f *FS) ReadAt(t *sim.Thread, in *vfs.Inode, off uint64, buf []byte) (uint64, error) {
	di := in.Priv.(*inode)
	if off >= di.size {
		return 0, vfs.ErrBadOffset
	}
	n := uint64(len(buf))
	if off+n > di.size {
		n = di.size - off
	}
	rem := buf[:n]
	pos := off
	for len(rem) > 0 {
		phys, run := f.physRun(di, pos)
		if run == 0 {
			panic(fmt.Sprintf("nova: read hole at %d", pos))
		}
		c := run
		if c > uint64(len(rem)) {
			c = uint64(len(rem))
		}
		f.dev.Read(t, mem.PhysAddr(phys), rem[:c])
		rem = rem[c:]
		pos += c
	}
	return n, nil
}

// Fallocate implements vfs.FS: blocks exposed for DAX mapping must be
// zeroed (security), even though the write path is zero-free.
func (f *FS) Fallocate(t *sim.Thread, in *vfs.Inode, off, n uint64) error {
	di := in.Priv.(*inode)
	di.mu.Lock(t, cost.SemAcquireFast)
	defer di.mu.Unlock(t, cost.SemReleaseFast)
	if err := f.ensureBlocks(t, in, di, vfs.BytesToBlocks(off+n), true); err != nil {
		return err
	}
	if end := off + n; end > di.size {
		di.size = end
		in.Size = end
		f.logAppend(t)
	}
	return nil
}

// Truncate implements vfs.FS.
func (f *FS) Truncate(t *sim.Thread, in *vfs.Inode, size uint64) error {
	di := in.Priv.(*inode)
	di.mu.Lock(t, cost.SemAcquireFast)
	defer di.mu.Unlock(t, cost.SemReleaseFast)
	if size >= di.size {
		di.size = size
		in.Size = size
		return nil
	}
	if f.hooks != nil && f.hooks.OnTruncate != nil {
		f.hooks.OnTruncate(t, in)
	}
	vfs.ForceUnmapAll(t, in)
	keep := vfs.BytesToBlocks(size)
	var freed []alloc.Run
	var kept []vfs.Extent
	for _, e := range di.extents {
		switch {
		case e.End() <= keep:
			kept = append(kept, e)
		case e.File >= keep:
			freed = append(freed, alloc.Run{Start: e.Phys, Len: e.Len})
		default:
			cut := keep - e.File
			kept = append(kept, vfs.Extent{File: e.File, Phys: e.Phys, Len: cut})
			freed = append(freed, alloc.Run{Start: e.Phys + cut, Len: e.Len - cut})
		}
	}
	di.extents = kept
	di.allocatedBlocks = keep
	di.size = size
	in.Size = size
	f.logAppend(t)
	if f.hooks != nil && f.hooks.OnShrink != nil {
		f.hooks.OnShrink(t, in, keep)
	}
	if len(freed) > 0 {
		if f.hooks != nil && f.hooks.OnFree != nil {
			ext := make([]vfs.Extent, len(freed))
			for i, r := range freed {
				ext[i] = vfs.Extent{Phys: r.Start, Len: r.Len}
			}
			if f.hooks.OnFree(t, ext) {
				return nil
			}
		}
		f.freeBlocks(t, freed)
	}
	return nil
}

// freeBlocks discards freed blocks' host backing and returns them to the
// allocator.
func (f *FS) freeBlocks(t *sim.Thread, runs []alloc.Run) {
	for _, r := range runs {
		f.dev.Discard(mem.PhysAddr(r.Start*mem.PageSize), r.Len*mem.PageSize)
	}
	f.alloc.Free(t, runs)
}

// ReleaseZeroed returns daemon-zeroed blocks marked zeroed.
func (f *FS) ReleaseZeroed(t *sim.Thread, ext []vfs.Extent) {
	runs := make([]alloc.Run, len(ext))
	for i, e := range ext {
		runs[i] = alloc.Run{Start: e.Phys, Len: e.Len, Zeroed: true}
	}
	f.alloc.Free(t, runs)
}

// Fsync implements vfs.FS: metadata is already durable; only a fixed cost.
func (f *FS) Fsync(t *sim.Thread, in *vfs.Inode) {
	t.ChargeAs("fsync_fixed", cost.FsyncFixed)
}

// SyncMetaIfDirty implements vfs.FS: a no-op — NOVA commits synchronously,
// so MAP_SYNC faults carry no journal work (the Fig. 9c NOVA contrast).
func (f *FS) SyncMetaIfDirty(t *sim.Thread, in *vfs.Inode) bool { return false }

// Extents implements vfs.FS.
func (f *FS) Extents(in *vfs.Inode) []vfs.Extent {
	di := in.Priv.(*inode)
	out := make([]vfs.Extent, len(di.extents))
	copy(out, di.extents)
	return out
}

// BlockOf implements vfs.FS.
func (f *FS) BlockOf(t *sim.Thread, in *vfs.Inode, fileBlock uint64) (uint64, bool) {
	t.ChargeAs("extent_lookup", cost.ExtentLookup)
	di := in.Priv.(*inode)
	// Manual binary search for the first extent ending past fileBlock:
	// sort.Search's closure would allocate on every fault-path lookup.
	i, j := 0, len(di.extents)
	for i < j {
		h := int(uint(i+j) >> 1)
		if di.extents[h].End() > fileBlock {
			j = h
		} else {
			i = h + 1
		}
	}
	if i == len(di.extents) || di.extents[i].File > fileBlock {
		return 0, false
	}
	e := di.extents[i]
	return e.Phys + (fileBlock - e.File), true
}

// FreeSpace implements vfs.FS.
func (f *FS) FreeSpace() uint64 { return f.alloc.FreeBlocks() * mem.PageSize }

// FreeExtentCount implements vfs.FS.
func (f *FS) FreeExtentCount() int { return f.alloc.FreeExtentCount() }

// PutInode implements vfs.FS.
func (f *FS) PutInode(t *sim.Thread, in *vfs.Inode) {
	if in.Deleted && in.Refs == 0 {
		if f.hooks != nil && f.hooks.OnShrink != nil {
			f.hooks.OnShrink(t, in, 0)
		}
		di := in.Priv.(*inode)
		if len(di.extents) > 0 {
			runs := make([]alloc.Run, len(di.extents))
			for i, e := range di.extents {
				runs[i] = alloc.Run{Start: e.Phys, Len: e.Len}
			}
			di.extents = nil
			di.allocatedBlocks = 0
			f.logAppend(t)
			if f.hooks != nil && f.hooks.OnFree != nil {
				ext := make([]vfs.Extent, len(runs))
				for i, r := range runs {
					ext[i] = vfs.Extent{Phys: r.Start, Len: r.Len}
				}
				if f.hooks.OnFree(t, ext) {
					delete(f.inodes, di.ino)
					return
				}
			}
			f.freeBlocks(t, runs)
		}
		delete(f.inodes, di.ino)
	}
}

// FileCount reports directory entries.
func (f *FS) FileCount() int { return len(f.dir) }
