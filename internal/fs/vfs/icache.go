package vfs

import (
	"daxvm/internal/cost"
	"daxvm/internal/sim"
)

// ICache is the VFS inode cache. Volatile DaxVM file tables live exactly
// as long as the cached inode: a cold open rebuilds them, eviction
// destroys them (paper §IV-A1, "Dynamic File Table Management").
type ICache struct {
	fs       FS
	capacity int
	inodes   map[Ino]*Inode
	lru      []Ino            // approximate LRU: most-recent at the back
	seen     map[Ino]struct{} // compactLRU's scratch set, empty between calls
	hooks    *Hooks

	Stats ICacheStats
}

// ICacheStats counts cache behaviour.
type ICacheStats struct {
	Hits      uint64
	ColdLoads uint64
	Evictions uint64
}

// NewICache creates a cache over fs holding at most capacity inodes. The
// map grows with the cached set: capacity bounds eviction, not the
// up-front allocation.
func NewICache(fs FS, capacity int, hooks *Hooks) *ICache {
	return &ICache{
		fs:       fs,
		capacity: capacity,
		inodes:   make(map[Ino]*Inode),
		hooks:    hooks,
	}
}

// Open resolves path and returns a referenced inode, loading it on a cold
// miss (which charges media access and triggers the OnLoad hook).
func (c *ICache) Open(t *sim.Thread, path string) (*Inode, error) {
	ino, err := c.fs.LookupPath(t, path)
	if err != nil {
		return nil, err
	}
	t.Charge(cost.InodeCacheLookup)
	if in, ok := c.inodes[ino]; ok {
		c.Stats.Hits++
		in.Refs++
		c.touch(ino)
		return in, nil
	}
	c.Stats.ColdLoads++
	in, err := c.fs.LoadInode(t, ino)
	if err != nil {
		return nil, err
	}
	c.insert(t, in)
	in.Refs++
	if c.hooks != nil && c.hooks.OnLoad != nil {
		c.hooks.OnLoad(t, in)
	}
	return in, nil
}

// Create makes a new file, caches it and returns it referenced.
func (c *ICache) Create(t *sim.Thread, path string) (*Inode, error) {
	in, err := c.fs.Create(t, path)
	if err != nil {
		return nil, err
	}
	c.insert(t, in)
	in.Refs++
	if c.hooks != nil && c.hooks.OnCreate != nil {
		c.hooks.OnCreate(t, in)
	}
	return in, nil
}

// Put drops a reference. Unreferenced inodes stay cached until evicted
// (or are destroyed immediately when deleted).
func (c *ICache) Put(t *sim.Thread, in *Inode) {
	if in.Refs <= 0 {
		panic("vfs: Put without reference")
	}
	in.Refs--
	if in.Refs == 0 && in.Deleted {
		c.drop(t, in)
		c.fs.PutInode(t, in)
		return
	}
	c.fs.PutInode(t, in)
}

// Get returns the cached inode without loading.
func (c *ICache) Get(ino Ino) (*Inode, bool) {
	in, ok := c.inodes[ino]
	return in, ok
}

// Len reports cached inode count.
func (c *ICache) Len() int { return len(c.inodes) }

func (c *ICache) insert(t *sim.Thread, in *Inode) {
	for len(c.inodes) >= c.capacity {
		if !c.evictOne(t) {
			break // everything referenced
		}
	}
	c.inodes[in.Ino] = in
	c.lru = append(c.lru, in.Ino)
}

// lruSlack lets a near-empty cache's LRU log grow a little before its
// first compaction.
const lruSlack = 64

func (c *ICache) touch(ino Ino) {
	// Cheap approximate LRU: append; duplicates resolved at eviction.
	// Compacting is idempotent and commutes with appending, so when it
	// runs changes no eviction choice; bounding the log by the cached
	// set, not the capacity, keeps its backing array small.
	c.lru = append(c.lru, ino)
	if len(c.lru) > 8*len(c.inodes)+lruSlack {
		c.compactLRU()
	}
}

// compactLRU drops duplicate and uncached entries from the LRU, keeping
// each inode's most recent position, in place: the backing array is kept
// for the appends that follow.
func (c *ICache) compactLRU() {
	if c.seen == nil {
		c.seen = make(map[Ino]struct{}, len(c.inodes))
	}
	// Walk most-recent-first, packing kept entries against the back; the
	// write index never passes the read index.
	w := len(c.lru)
	for i := len(c.lru) - 1; i >= 0; i-- {
		ino := c.lru[i]
		if _, dup := c.seen[ino]; dup {
			continue
		}
		if _, ok := c.inodes[ino]; !ok {
			continue
		}
		c.seen[ino] = struct{}{}
		w--
		c.lru[w] = ino
	}
	n := copy(c.lru, c.lru[w:])
	c.lru = c.lru[:n]
	clear(c.seen)
}

func (c *ICache) evictOne(t *sim.Thread) bool {
	c.compactLRU()
	for i, ino := range c.lru {
		in, ok := c.inodes[ino]
		if !ok {
			continue
		}
		if in.Refs > 0 {
			continue
		}
		c.lru = append(c.lru[:i:i], c.lru[i+1:]...)
		delete(c.inodes, ino)
		c.Stats.Evictions++
		if c.hooks != nil && c.hooks.OnEvict != nil {
			c.hooks.OnEvict(t, in)
		}
		return true
	}
	return false
}

func (c *ICache) drop(t *sim.Thread, in *Inode) {
	delete(c.inodes, in.Ino)
	if c.hooks != nil && c.hooks.OnEvict != nil {
		c.hooks.OnEvict(t, in)
	}
}
