// Package ext4 models ext4 with DAX (the paper's primary file system):
// extent-mapped inodes, a jbd2-style journal, and the DAX data paths —
// write(2) copies with non-temporal stores directly to media, and block
// allocation conservatively zeroes new blocks even on the system-call
// path (the behaviour DaxVM's asynchronous pre-zeroing removes).
package ext4

import (
	"fmt"
	"sort"

	"daxvm/internal/cost"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// inode is the "on-media" ext4 inode.
type inode struct {
	ino     vfs.Ino
	size    uint64
	extents []vfs.Extent // sorted by File
	mu      *sim.Mutex   // i_rwsem (write side only is modeled)
	// allocatedBlocks caches the number of blocks the extents cover at
	// the tail (files grow densely at the end).
	allocatedBlocks uint64
}

// Config controls mkfs.
type Config struct {
	// Dev is the backing device.
	Dev *pmem.Device
	// JournalBytes reserves the log area (default 128 MiB).
	JournalBytes uint64
	// TrustZeroed lets the allocator's zeroed tracking skip redundant
	// zeroing — the DaxVM pre-zeroing extension. Baseline ext4-DAX is
	// conservative and zeroes unconditionally.
	TrustZeroed bool
	// Hooks are the DaxVM extension points.
	Hooks *vfs.Hooks
}

// FS is the ext4-DAX instance.
type FS struct {
	dev     *pmem.Device
	alloc   *alloc.Allocator
	journal *Journal
	hooks   *vfs.Hooks

	trustZeroed bool
	agingMode   bool // skip data work during image aging

	dir     map[string]vfs.Ino
	inodes  map[vfs.Ino]*inode
	nextIno vfs.Ino

	dirLock sim.SpinLock

	Stats FSStats
}

// FSStats counts data-path activity.
type FSStats struct {
	Creates      uint64
	Unlinks      uint64
	Appends      uint64
	ZeroedBlocks uint64
	SkippedZero  uint64
	MetaSyncs    uint64
}

// Mkfs formats the device.
func Mkfs(cfg Config) *FS {
	jb := cfg.JournalBytes
	if jb == 0 {
		jb = 128 << 20
	}
	if jb >= cfg.Dev.Size() {
		panic("ext4: journal larger than device")
	}
	firstDataBlock := vfs.BytesToBlocks(jb)
	totalBlocks := cfg.Dev.Size() / mem.PageSize
	f := &FS{
		dev:         cfg.Dev,
		alloc:       alloc.New(firstDataBlock, totalBlocks-firstDataBlock, true),
		journal:     NewJournal(cfg.Dev, 0, jb),
		hooks:       cfg.Hooks,
		trustZeroed: cfg.TrustZeroed,
		dir:         make(map[string]vfs.Ino),
		inodes:      make(map[vfs.Ino]*inode),
		nextIno:     2, // 1 is reserved, like the root inode
	}
	return f
}

// Name implements vfs.FS.
func (f *FS) Name() string { return "ext4-dax" }

// Device implements vfs.FS.
func (f *FS) Device() *pmem.Device { return f.dev }

// Journal exposes the journal (DaxVM couples file-table fences to it).
func (f *FS) Journal() *Journal { return f.journal }

// Allocator exposes the allocator (pre-zero daemon, aging tool).
func (f *FS) Allocator() *alloc.Allocator { return f.alloc }

// SetHooks installs (or replaces) the DaxVM extension hooks. DaxVM's
// manager needs the FS's allocator at construction, so hook installation
// is necessarily a second step.
func (f *FS) SetHooks(h *vfs.Hooks) { f.hooks = h }

// SetAgingMode toggles the fast-setup path used while aging the image:
// layout changes are real, data writes and zeroing are skipped (and the
// touched blocks are marked non-zeroed).
func (f *FS) SetAgingMode(on bool) { f.agingMode = on }

// SetTrustZeroed enables/disables the pre-zeroing extension.
func (f *FS) SetTrustZeroed(on bool) { f.trustZeroed = on }

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
	f.Stats.Creates++
	t.ChargeAs("inode_update", cost.InodeUpdate)
	f.journal.Begin(t)
	f.journal.AddMeta(t, 1)
	return f.vfsInode(di, path), nil
}

func (f *FS) vfsInode(di *inode, path string) *vfs.Inode {
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
	comps := uint64(1)
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			comps++
		}
	}
	t.ChargeAs("path_lookup", cost.PathLookupPerCmp*comps)
	ino, ok := f.dir[path]
	if !ok {
		return 0, vfs.ErrNotFound
	}
	return ino, nil
}

// LoadInode implements vfs.FS: a cold open reads the inode and its extent
// tree from media.
func (f *FS) LoadInode(t *sim.Thread, ino vfs.Ino) (*vfs.Inode, error) {
	di, ok := f.inodes[ino]
	if !ok {
		return nil, vfs.ErrNotFound
	}
	// Inode block + one media access per 64 extents (340 fit a 4 KiB
	// extent-tree block; be conservative).
	t.ChargeAs("inode_load", cost.PMemLoadLatency+cost.PMemSeqLoadLat*uint64(1+len(di.extents)/64))
	path := ""
	return f.vfsInodeWithSize(di, path), nil
}

func (f *FS) vfsInodeWithSize(di *inode, path string) *vfs.Inode {
	in := f.vfsInode(di, path)
	in.Size = di.size
	return in
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(t *sim.Thread, path string) error {
	f.dirLock.Lock(t, cost.SpinLockAcquire)
	ino, ok := f.dir[path]
	if !ok {
		f.dirLock.Unlock(t, cost.SpinLockRelease)
		return vfs.ErrNotFound
	}
	delete(f.dir, path)
	f.dirLock.Unlock(t, cost.SpinLockRelease)
	f.Stats.Unlinks++
	f.journal.Begin(t)
	f.journal.AddMeta(t, 1)
	t.ChargeAs("inode_update", cost.InodeUpdate)
	_ = ino
	return nil
}

// DropInode frees an unlinked inode's blocks (called by PutInode when the
// last reference is gone).
func (f *FS) dropBlocks(t *sim.Thread, di *inode) {
	if len(di.extents) == 0 {
		return
	}
	runs := make([]alloc.Run, len(di.extents))
	for i, e := range di.extents {
		runs[i] = alloc.Run{Start: e.Phys, Len: e.Len}
	}
	di.extents = nil
	di.allocatedBlocks = 0
	di.size = 0
	f.journal.Begin(t)
	f.journal.AddMeta(t, uint64(1+len(runs)/64))
	f.freeRuns(t, runs)
	delete(f.inodes, di.ino)
}

// freeRuns routes freed blocks through the OnFree hook (pre-zero daemon)
// or straight back to the allocator, discarding their host backing.
func (f *FS) freeRuns(t *sim.Thread, runs []alloc.Run) {
	if f.hooks != nil && f.hooks.OnFree != nil {
		ext := make([]vfs.Extent, len(runs))
		for i, r := range runs {
			ext[i] = vfs.Extent{Phys: r.Start, Len: r.Len}
		}
		if f.hooks.OnFree(t, ext) {
			return // daemon owns them now
		}
	}
	for _, r := range runs {
		f.dev.Discard(mem.PhysAddr(r.Start*mem.PageSize), r.Len*mem.PageSize)
	}
	f.alloc.Free(t, runs)
}

// ReleaseZeroed returns daemon-zeroed blocks to the allocator marked
// zeroed.
func (f *FS) ReleaseZeroed(t *sim.Thread, ext []vfs.Extent) {
	runs := make([]alloc.Run, len(ext))
	for i, e := range ext {
		runs[i] = alloc.Run{Start: e.Phys, Len: e.Len, Zeroed: true}
	}
	f.alloc.Free(t, runs)
}

// ensureBlocks allocates blocks so the file covers [0, blocks). It zeroes
// new blocks per policy, appends extents, journals the metadata, invokes
// the OnAlloc hook, and marks metadata dirty (MAP_SYNC exposure).
func (f *FS) ensureBlocks(t *sim.Thread, in *vfs.Inode, di *inode, blocks uint64) error {
	if blocks <= di.allocatedBlocks {
		return nil
	}
	need := blocks - di.allocatedBlocks
	runs := f.alloc.Alloc(t, need)
	if runs == nil {
		return vfs.ErrNoSpace
	}
	f.journal.Begin(t)
	newExt := make([]vfs.Extent, 0, len(runs))
	fileBlock := di.allocatedBlocks
	for _, r := range runs {
		if !f.agingMode {
			if r.Zeroed && f.trustZeroed {
				f.Stats.SkippedZero += r.Len
			} else {
				f.dev.Zero(t, mem.PhysAddr(r.Start*mem.PageSize), r.Len*mem.PageSize)
				f.Stats.ZeroedBlocks += r.Len
			}
		}
		e := vfs.Extent{File: fileBlock, Phys: r.Start, Len: r.Len}
		newExt = append(newExt, e)
		fileBlock += r.Len
	}
	di.extents = append(di.extents, newExt...)
	di.allocatedBlocks = fileBlock
	f.journal.AddMeta(t, uint64(1+len(newExt)/8))
	in.MetaDirty = true
	in.MetaDirtyBlocks += uint64(1 + len(newExt)/8)
	if f.hooks != nil && f.hooks.OnAlloc != nil {
		f.hooks.OnAlloc(t, in, newExt)
	}
	return nil
}

// Append implements vfs.FS: write(2) at EOF. Data goes to media with
// non-temporal stores (no dirty tracking needed).
func (f *FS) Append(t *sim.Thread, in *vfs.Inode, data []byte) error {
	di := in.Priv.(*inode)
	di.mu.Lock(t, cost.SemAcquireFast)
	defer di.mu.Unlock(t, cost.SemReleaseFast)
	off := di.size
	end := off + uint64(len(data))
	if err := f.ensureBlocks(t, in, di, vfs.BytesToBlocks(end)); err != nil {
		return err
	}
	if !f.agingMode {
		f.copyToMedia(t, di, off, data)
	}
	di.size = end
	in.Size = end
	t.ChargeAs("inode_update", cost.InodeUpdate)
	f.journal.AddMeta(t, 1)
	f.Stats.Appends++
	return nil
}

// WriteAt implements vfs.FS: overwrite within the file.
func (f *FS) WriteAt(t *sim.Thread, in *vfs.Inode, off uint64, data []byte) error {
	di := in.Priv.(*inode)
	if off+uint64(len(data)) > di.allocatedBlocks*mem.PageSize {
		return vfs.ErrBadOffset
	}
	f.copyToMedia(t, di, off, data)
	if end := off + uint64(len(data)); end > di.size {
		di.size = end
		in.Size = end
		t.ChargeAs("inode_update", cost.InodeUpdate)
	}
	return nil
}

// copyToMedia routes a byte range through the extent map with nt-stores.
func (f *FS) copyToMedia(t *sim.Thread, di *inode, off uint64, data []byte) {
	for len(data) > 0 {
		phys, run := f.physRun(di, off)
		if run == 0 {
			panic(fmt.Sprintf("ext4: write hole at offset %d of inode %d", off, di.ino))
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

// readFromMedia is the mirror path for reads.
func (f *FS) readFromMedia(t *sim.Thread, di *inode, off uint64, buf []byte) {
	for len(buf) > 0 {
		phys, run := f.physRun(di, off)
		if run == 0 {
			panic(fmt.Sprintf("ext4: read hole at offset %d of inode %d", off, di.ino))
		}
		n := run
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		f.dev.Read(t, mem.PhysAddr(phys), buf[:n])
		buf = buf[n:]
		off += n
	}
}

// physRun translates byte offset -> (physical byte address, contiguous
// bytes remaining in that extent).
func (f *FS) physRun(di *inode, off uint64) (uint64, uint64) {
	fb := off / mem.PageSize
	i := sort.Search(len(di.extents), func(i int) bool { return di.extents[i].End() > fb })
	if i == len(di.extents) {
		return 0, 0
	}
	e := di.extents[i]
	if fb < e.File {
		return 0, 0
	}
	inExt := off - e.File*mem.PageSize
	phys := e.Phys*mem.PageSize + inExt
	return phys, e.Len*mem.PageSize - inExt
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
	f.readFromMedia(t, di, off, buf[:n])
	return n, nil
}

// Fallocate implements vfs.FS.
func (f *FS) Fallocate(t *sim.Thread, in *vfs.Inode, off, n uint64) error {
	di := in.Priv.(*inode)
	di.mu.Lock(t, cost.SemAcquireFast)
	defer di.mu.Unlock(t, cost.SemReleaseFast)
	if err := f.ensureBlocks(t, in, di, vfs.BytesToBlocks(off+n)); err != nil {
		return err
	}
	if end := off + n; end > di.size {
		di.size = end
		in.Size = end
		t.ChargeAs("inode_update", cost.InodeUpdate)
		f.journal.AddMeta(t, 1)
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
	f.journal.Begin(t)
	f.journal.AddMeta(t, uint64(1+len(freed)/8))
	in.MetaDirty = true
	in.MetaDirtyBlocks++
	if f.hooks != nil && f.hooks.OnShrink != nil {
		f.hooks.OnShrink(t, in, keep)
	}
	if len(freed) > 0 {
		f.freeRuns(t, freed)
	}
	return nil
}

// Fsync implements vfs.FS (metadata part; mapped-data flushing is the
// mm layer's job).
func (f *FS) Fsync(t *sim.Thread, in *vfs.Inode) {
	t.ChargeAs("fsync_fixed", cost.FsyncFixed)
	if in.MetaDirty {
		f.journal.Commit(t)
		in.MetaDirty = false
		in.MetaDirtyBlocks = 0
	}
}

// SyncMetaIfDirty implements vfs.FS: the MAP_SYNC write-fault path.
func (f *FS) SyncMetaIfDirty(t *sim.Thread, in *vfs.Inode) bool {
	if !in.MetaDirty {
		return false
	}
	f.Stats.MetaSyncs++
	f.journal.Commit(t)
	in.MetaDirty = false
	in.MetaDirtyBlocks = 0
	return true
}

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
		if di, ok := in.Priv.(*inode); ok {
			f.dropBlocks(t, di)
		}
	}
}

// FileCount reports directory entries (aging tool bookkeeping).
func (f *FS) FileCount() int { return len(f.dir) }

// Paths returns all file paths (corpus iteration); order is unspecified.
func (f *FS) Paths() []string {
	out := make([]string, 0, len(f.dir))
	for p := range f.dir {
		out = append(out, p)
	}
	return out
}
