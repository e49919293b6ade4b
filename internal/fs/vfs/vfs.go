// Package vfs defines the virtual-file-system layer of the simulated
// kernel: inodes, extents, the FS interface implemented by the ext4-DAX
// and NOVA models, and the inode cache whose lifetime bounds DaxVM's
// volatile file tables.
package vfs

import (
	"errors"

	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/radix"
	"daxvm/internal/sim"
)

// Ino is an inode number.
type Ino uint64

// Extent maps a run of file blocks to physical blocks (4 KiB units).
type Extent struct {
	File uint64 // first file block
	Phys uint64 // first physical block on the device
	Len  uint64 // length in blocks
}

// End returns one past the last file block.
func (e Extent) End() uint64 { return e.File + e.Len }

// Common errors.
var (
	ErrNotFound    = errors.New("vfs: no such file")
	ErrExists      = errors.New("vfs: file exists")
	ErrNoSpace     = errors.New("vfs: no space left on device")
	ErrBadOffset   = errors.New("vfs: offset beyond end of file")
	ErrStillOpen   = errors.New("vfs: inode has users")
	ErrUnsupported = errors.New("vfs: operation not supported")
)

// Inode is the in-memory (VFS) inode. FS implementations keep their
// private state in Priv; DaxVM keeps the file-table root in FileTable.
type Inode struct {
	Ino  Ino
	Path string
	Size uint64 // bytes

	// Priv is the owning file system's private per-inode state.
	Priv any

	// FileTable is DaxVM's per-file page-table state (*core.FileTable);
	// held here so the FS block hooks and the VFS eviction path can reach
	// it without an import cycle.
	FileTable any

	// DirtyPages is the page-cache radix tree tracking pages dirtied
	// through mappings (tagged TagDirty). DAX syncing walks it.
	DirtyPages radix.Tree[struct{}]

	// MetaDirty marks uncommitted metadata (extents added but journal
	// transaction not yet committed). A MAP_SYNC write fault must commit
	// it synchronously — the Fig. 9c effect.
	MetaDirty bool
	// MetaDirtyBlocks approximates how many metadata blocks the pending
	// transaction carries (more fragmentation -> bigger commits).
	MetaDirtyBlocks uint64

	// Mappers is the address_space->i_mmap analogue: callbacks to force
	// unmapping when blocks are reclaimed (truncate/unlink vs deferred
	// unmap races). Keyed by an opaque owner, which the callback is
	// passed, so one callback serves every mapping of a process.
	Mappers map[any]func(t *sim.Thread, owner any)

	// Refs counts open file descriptions + mappings; the icache may only
	// evict at zero.
	Refs int

	// Deleted marks an unlinked inode (freed on last put).
	Deleted bool
}

// FS is the interface both file-system models implement.
type FS interface {
	// Name identifies the model ("ext4-dax", "nova").
	Name() string
	// Device returns the backing PMem device.
	Device() *pmem.Device

	// Create makes an empty file.
	Create(t *sim.Thread, path string) (*Inode, error)
	// LookupPath resolves a path to an inode number (charged).
	LookupPath(t *sim.Thread, path string) (Ino, error)
	// LoadInode materializes the inode from media (cold open).
	LoadInode(t *sim.Thread, ino Ino) (*Inode, error)
	// Unlink removes the directory entry; blocks are freed when the last
	// reference drops (PutInode with Deleted set).
	Unlink(t *sim.Thread, path string) error

	// Append grows the file by writing data at the current end (block
	// allocation + data copy via nt-stores). Used by write(2) at EOF.
	Append(t *sim.Thread, ino *Inode, data []byte) error
	// WriteAt overwrites existing bytes (no allocation).
	WriteAt(t *sim.Thread, ino *Inode, off uint64, data []byte) error
	// ReadAt copies file bytes into buf, returning the count.
	ReadAt(t *sim.Thread, ino *Inode, off uint64, buf []byte) (uint64, error)
	// Fallocate ensures blocks exist for [off, off+n) without writing
	// data (zeroing per the FS's DAX security policy).
	Fallocate(t *sim.Thread, ino *Inode, off, n uint64) error
	// Truncate sets the file size, freeing blocks on shrink.
	Truncate(t *sim.Thread, ino *Inode, size uint64) error
	// Fsync commits metadata and (for mapped dirty pages) flushes data.
	Fsync(t *sim.Thread, ino *Inode)
	// SyncMetaIfDirty synchronously commits pending metadata (the
	// MAP_SYNC fault path). Reports whether a commit happened.
	SyncMetaIfDirty(t *sim.Thread, ino *Inode) bool

	// Extents returns the extent list (ascending file block).
	Extents(ino *Inode) []Extent
	// BlockOf resolves one file block to a physical block, charging the
	// extent-tree lookup (the per-fault FS cost DaxVM avoids).
	BlockOf(t *sim.Thread, ino *Inode, fileBlock uint64) (uint64, bool)

	// FreeSpace reports free bytes.
	FreeSpace() uint64
	// FreeExtentCount reports allocator fragmentation.
	FreeExtentCount() int

	// PutInode drops a reference taken by LoadInode/Create; when the
	// inode is Deleted and unreferenced its blocks are freed.
	PutInode(t *sim.Thread, ino *Inode)
}

// Hooks let DaxVM extend a file system without the FS importing it.
type Hooks struct {
	// OnAlloc runs after blocks are allocated to an inode (file-table
	// population point).
	OnAlloc func(t *sim.Thread, ino *Inode, ext []Extent)
	// OnFree intercepts freed blocks. Returning true takes ownership
	// (the pre-zero daemon will zero and release them later); false lets
	// the FS return them to its allocator immediately.
	OnFree func(t *sim.Thread, ext []Extent) bool
	// OnTruncate runs before blocks are reclaimed so deferred unmappings
	// can be forced synchronously.
	OnTruncate func(t *sim.Thread, ino *Inode)
	// OnShrink runs after a truncate trimmed the extent map (file-table
	// coverage must shrink to keepBlocks).
	OnShrink func(t *sim.Thread, ino *Inode, keepBlocks uint64)
	// OnEvict runs when the icache drops an inode (volatile file tables
	// die here).
	OnEvict func(t *sim.Thread, ino *Inode)
	// OnCreate/OnLoad run when an inode becomes live (file-table
	// construction or recovery point).
	OnCreate func(t *sim.Thread, ino *Inode)
	OnLoad   func(t *sim.Thread, ino *Inode)
}

// ForceUnmapAll invokes every registered mapper callback (truncate race
// path).
func ForceUnmapAll(t *sim.Thread, ino *Inode) {
	for owner, fn := range ino.Mappers {
		fn(t, owner)
	}
}

// BytesToBlocks converts a byte count to 4 KiB blocks, rounding up.
func BytesToBlocks(n uint64) uint64 { return (n + mem.PageSize - 1) / mem.PageSize }
