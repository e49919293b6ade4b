package obs

import (
	"strings"
	"sync"
)

// Path is a dense, process-wide id for a dotted attribution path
// ("app.syscall.write.ntstore"). The engine carries ids instead of
// strings from the charge site to the cycle account and the span
// collector, so a steady-state charge indexes flat slices and never
// hashes a name. Ids follow first-intern order, which depends on
// everything the process ran before; they must never reach an output.
// Every export resolves names with String and sorts them.
type Path uint32

// pathTable is the process-wide interner behind Path. Only misses and
// name lookups touch it; the hot paths cache ids in their own slices.
type pathTable struct {
	mu sync.RWMutex
	// guarded by mu
	ids map[string]Path
	// guarded by mu
	names []string
	// roots[p] is the id of p's first component ("app" for
	// "app.syscall.write"), resolved when p is interned.
	// guarded by mu
	roots []Path
}

var paths = pathTable{ids: make(map[string]Path)}

// InternPath returns name's id, interning it on first sight.
func InternPath(name string) Path {
	paths.mu.RLock()
	p, ok := paths.ids[name]
	paths.mu.RUnlock()
	if ok {
		return p
	}
	paths.mu.Lock()
	defer paths.mu.Unlock()
	return paths.internLocked(name)
}

// JoinPath returns the id of the path label nested under parent
// ("fault.wp" under "app.access" is "app.access.fault.wp").
func JoinPath(parent Path, label string) Path {
	//lint:ignore hotalloc interning miss: callers cache the joined id, so the concat runs once per unique (parent, label) pair
	return InternPath(parent.String() + "." + label)
}

// internLocked interns name and, first, its root component. Caller
// holds mu for writing.
func (t *pathTable) internLocked(name string) Path {
	if p, ok := t.ids[name]; ok {
		return p
	}
	root := Path(len(t.names))
	if i := strings.IndexByte(name, '.'); i >= 0 {
		root = t.internLocked(name[:i])
	}
	p := Path(len(t.names))
	t.ids[name] = p
	//lint:ignore hotalloc interning miss: one entry per unique path in the process
	t.names = append(t.names, name)
	//lint:ignore hotalloc interning miss: one entry per unique path in the process
	t.roots = append(t.roots, root)
	return p
}

// String returns the dotted path p names.
func (p Path) String() string {
	paths.mu.RLock()
	defer paths.mu.RUnlock()
	return paths.names[p]
}

// Root returns the id of p's top-level component, which is p itself for
// a one-component path.
func (p Path) Root() Path {
	paths.mu.RLock()
	defer paths.mu.RUnlock()
	return paths.roots[p]
}
