package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

// CycleAccount is the hierarchical cycle-attribution profiler: every cycle
// the simulator charges is booked against a dotted attribution path
// ("app.syscall.write.ntstore", "app.access.fault.minor", ...), per
// simulated core. Its Book method matches the sim engine's charge-sink
// signature, so wiring is one SetChargeSink call per engine. Leaves are
// exact paths; interior nodes exist implicitly as shared prefixes and
// are materialized by Snapshot views (WriteTable, TotalOf).
//
// Invariant (asserted by bench tests): Total() equals the sum of
// Engine.TotalCharged() over every engine wired to the account — the
// profile cannot silently lose time.
type CycleAccount struct {
	mu sync.Mutex
	// leaves is indexed by Path; nil until the path's first charge.
	// guarded by mu
	leaves []*cycleLeaf
	// order lists the charged paths in first-charge order, so snapshots
	// cost the account's own leaves, not the process-wide id range.
	// guarded by mu
	order []Path
	total uint64 // guarded by mu
	// Per-root totals in first-seen slot order: a root is a path's first
	// component ("app" for "app.syscall.write"), resolved once when its
	// first leaf is created, so every charge adds to its root with one
	// slice add and ReadRoots copies a flat slice.
	// guarded by mu
	rootPaths []Path
	// guarded by mu
	roots []uint64
}

type cycleLeaf struct {
	cycles uint64
	count  uint64
	root   int          // slot in CycleAccount.roots
	byCore []coreCycles // indexed by core
}

// coreCycles is one core's share of a leaf. charged tells a core that
// booked 0 cycles apart from one that never booked.
type coreCycles struct {
	cycles  uint64
	charged bool
}

// NewCycleAccount creates an empty account.
func NewCycleAccount() *CycleAccount {
	return &CycleAccount{}
}

// Book books cycles against path on core. Nil-safe, and the signature
// matches sim.Engine.SetChargeSink so the method value wires directly.
func (a *CycleAccount) Book(core int, path Path, cycles uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.bookLocked(core, path, cycles, 1)
	a.mu.Unlock()
}

// BookN books a pre-aggregated batch: cycles summed over count charges
// to the same (core, path). It is the bulk form of Book used by the
// sharded scheduler's workers (wire via sim.Engine.SetChargeBulkSink);
// because the account only ever sums, N single charges and one BookN
// land in the identical state.
func (a *CycleAccount) BookN(core int, path Path, cycles, count uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.bookLocked(core, path, cycles, count)
	a.mu.Unlock()
}

// bookLocked adds one (possibly aggregated) charge to path's leaf, its
// root and the total. Caller holds mu.
func (a *CycleAccount) bookLocked(core int, path Path, cycles, count uint64) {
	var l *cycleLeaf
	if int(path) < len(a.leaves) {
		l = a.leaves[path]
	}
	if l == nil {
		l = a.newLeafLocked(path)
	}
	l.cycles += cycles
	l.count += count
	if core >= len(l.byCore) {
		//lint:ignore hotalloc first charge on a new core of a leaf only; a run has a handful of cores
		l.byCore = append(l.byCore, make([]coreCycles, core+1-len(l.byCore))...)
	}
	c := &l.byCore[core]
	c.cycles += cycles
	c.charged = true
	a.roots[l.root] += cycles
	a.total += cycles
}

// newLeafLocked creates path's leaf, resolving (or creating) its root
// slot. Caller holds mu.
func (a *CycleAccount) newLeafLocked(path Path) *cycleLeaf {
	root := path.Root()
	slot := slices.Index(a.rootPaths, root) // a run has a handful of roots
	if slot < 0 {
		slot = len(a.roots)
		//lint:ignore hotalloc first charge under a new root only; a run has a handful of roots
		a.rootPaths = append(a.rootPaths, root)
		//lint:ignore hotalloc first charge under a new root only; a run has a handful of roots
		a.roots = append(a.roots, 0)
	}
	if int(path) >= len(a.leaves) {
		//lint:ignore hotalloc first charge to a path past the table end only; the table tracks the process-wide path count
		a.leaves = append(a.leaves, make([]*cycleLeaf, int(path)+1-len(a.leaves))...)
	}
	//lint:ignore hotalloc first charge to a unique path only; steady state indexes the slice
	l := &cycleLeaf{root: slot}
	a.leaves[path] = l
	//lint:ignore hotalloc first charge to a unique path only
	a.order = append(a.order, path)
	return l
}

// Total reports all cycles booked so far.
func (a *CycleAccount) Total() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// ReadRoots returns the booked total and copies the per-root totals into
// dst (reusing its capacity), one value per root slot in first-seen
// order. A nil account reads zero and no roots.
func (a *CycleAccount) ReadRoots(dst []uint64) (total uint64, roots []uint64) {
	if a == nil {
		return 0, dst[:0]
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	dst = resize(dst, len(a.roots))
	copy(dst, a.roots)
	return a.total, dst
}

// RootName returns the attribution root in slot i.
func (a *CycleAccount) RootName(i int) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rootPaths[i].String()
}

// Snapshot copies the account state.
func (a *CycleAccount) Snapshot() CycleSnapshot {
	if a == nil {
		return CycleSnapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := CycleSnapshot{Total: a.total, Leaves: make(map[string]CycleLeaf, len(a.order))}
	for _, p := range a.order {
		l := a.leaves[p]
		cl := CycleLeaf{Cycles: l.cycles, Count: l.count, ByCore: make(map[int]uint64, len(l.byCore))}
		for c, v := range l.byCore {
			if v.charged {
				cl.ByCore[c] = v.cycles
			}
		}
		s.Leaves[p.String()] = cl
	}
	return s
}

// CycleLeaf is one attribution path's booked cost.
type CycleLeaf struct {
	Cycles uint64         `json:"cycles"`
	Count  uint64         `json:"count"`
	ByCore map[int]uint64 `json:"by_core,omitempty"`
}

// CycleSnapshot is a point-in-time reading of the account; it is what the
// daxvm-bench/v2 artifact embeds as cycle_breakdown.
type CycleSnapshot struct {
	Total  uint64               `json:"total"`
	Leaves map[string]CycleLeaf `json:"leaves"`
}

// Delta subtracts prev leaf-wise (the measured window's profile), dropping
// leaves that saw no new cycles.
func (s CycleSnapshot) Delta(prev CycleSnapshot) CycleSnapshot {
	d := CycleSnapshot{Leaves: make(map[string]CycleLeaf)}
	if s.Total > prev.Total {
		d.Total = s.Total - prev.Total
	}
	for path, l := range s.Leaves {
		p := prev.Leaves[path]
		if l.Cycles <= p.Cycles {
			continue
		}
		dl := CycleLeaf{Cycles: l.Cycles - p.Cycles}
		if l.Count > p.Count {
			dl.Count = l.Count - p.Count
		}
		for c, v := range l.ByCore {
			if pv := p.ByCore[c]; v > pv {
				if dl.ByCore == nil {
					dl.ByCore = make(map[int]uint64)
				}
				dl.ByCore[c] = v - pv
			}
		}
		d.Leaves[path] = dl
	}
	return d
}

// TotalOf sums every leaf at prefix or nested under it ("journal" covers
// both the "journal" leaf and "journal.commit").
func (s CycleSnapshot) TotalOf(prefix string) uint64 {
	var sum uint64
	for path, l := range s.Leaves {
		if path == prefix || strings.HasPrefix(path, prefix+".") {
			sum += l.Cycles
		}
	}
	return sum
}

// WriteFolded emits the snapshot in folded-stack format — one line per
// leaf, frames separated by semicolons, sample count last — directly
// consumable by flamegraph.pl or speedscope. Lines are sorted for
// deterministic output.
func (s CycleSnapshot) WriteFolded(w io.Writer) error {
	for _, p := range SortedKeys(s.Leaves) {
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.ReplaceAll(p, ".", ";"), s.Leaves[p].Cycles); err != nil {
			return err
		}
	}
	return nil
}

// cycleNode is one materialized row of the hierarchical table.
type cycleNode struct {
	path        string
	total, self uint64
	count       uint64
}

// nodes materializes every prefix of every leaf with its rolled-up total.
func (s CycleSnapshot) nodes() []cycleNode {
	m := map[string]*cycleNode{}
	for path, l := range s.Leaves {
		for i := 0; i <= len(path); i++ {
			if i == len(path) || path[i] == '.' {
				pre := path[:i]
				n := m[pre]
				if n == nil {
					n = &cycleNode{path: pre}
					m[pre] = n
				}
				n.total += l.Cycles
				n.count += l.Count
				if i == len(path) {
					n.self += l.Cycles
				}
			}
		}
	}
	out := make([]cycleNode, 0, len(m))
	for _, n := range m {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].path < out[j].path
	})
	return out
}

// WriteTable prints the topN nodes by rolled-up total: attributed share,
// total (node + descendants), self (cycles booked exactly at the node),
// and charge count. Nested rows indent by depth so the hierarchy reads.
func (s CycleSnapshot) WriteTable(w io.Writer, topN int) {
	nodes := s.nodes()
	if topN > 0 && len(nodes) > topN {
		nodes = nodes[:topN]
	}
	fmt.Fprintf(w, "  %7s %14s %14s %12s  %s\n", "%TOTAL", "TOTAL", "SELF", "CALLS", "PATH")
	for _, n := range nodes {
		pct := 0.0
		if s.Total > 0 {
			pct = 100 * float64(n.total) / float64(s.Total)
		}
		indent := strings.Repeat("  ", strings.Count(n.path, "."))
		fmt.Fprintf(w, "  %6.2f%% %14d %14d %12d  %s%s\n", pct, n.total, n.self, n.count, indent, n.path)
	}
}
