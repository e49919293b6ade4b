package obs

import (
	"sort"
	"sync"
)

// Registry maps dotted metric names to reader closures. Subsystems keep
// their existing Stats structs; the registry reads them on Snapshot, so
// registration costs nothing on the hot path.
//
// Names follow `subsystem.metric` (e.g. "tlb.misses") with further dots
// for sub-components ("mm.lock.wait_cycles", "ext4.journal.commits").
// Re-registering a name replaces the reader — when several machines share
// one registry (an experiment sweep), the latest boot wins.
//
// Counters and histograms live in registration-order slots; the name maps
// are consulted only when registering. A re-registered name keeps its
// slot, so a periodic reader (ReadCounters, ReadHists) can diff two
// readings slot by slot: a slot past the end of the older reading was
// registered in between.
type Registry struct {
	mu sync.Mutex
	// guarded by mu
	counterSlot map[string]int
	// guarded by mu
	counterNames []string
	// guarded by mu
	counters []func() uint64
	// guarded by mu
	histSlot map[string]int
	// guarded by mu
	histNames []string
	// guarded by mu
	hists []*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counterSlot: make(map[string]int),
		histSlot:    make(map[string]int),
	}
}

// Counter registers a named counter read through fn at snapshot time.
// Gauges (values that can shrink, e.g. dram.used_bytes) register the same
// way; Delta clamps them at zero.
func (r *Registry) Counter(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.counterSlot[name]; ok {
		r.counters[i] = fn
		return
	}
	r.counterSlot[name] = len(r.counters)
	r.counterNames = append(r.counterNames, name)
	r.counters = append(r.counters, fn)
}

// Histogram registers (or returns the existing) named log2 histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.histSlot[name]; ok {
		return r.hists[i]
	}
	h := &Histogram{}
	r.histSlot[name] = len(r.hists)
	r.histNames = append(r.histNames, name)
	r.hists = append(r.hists, h)
	return h
}

// Names lists registered counter names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.counterNames...)
	sort.Strings(names)
	return names
}

// CounterSlot returns the slot of the named counter, or -1 when it is not
// registered.
func (r *Registry) CounterSlot(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.counterSlot[name]; ok {
		return i
	}
	return -1
}

// CounterName returns the name registered in counter slot i.
func (r *Registry) CounterName(i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterNames[i]
}

// HistName returns the name registered in histogram slot i.
func (r *Registry) HistName(i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histNames[i]
}

// ReadCounters reads every counter into dst (reusing its capacity), one
// value per slot in registration order. A nil registry reads none.
func (r *Registry) ReadCounters(dst []uint64) []uint64 {
	if r == nil {
		return dst[:0]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dst = resize(dst, len(r.counters))
	for i, fn := range r.counters {
		dst[i] = fn()
	}
	return dst
}

// ReadHists reads every histogram into dst (reusing its capacity), one
// reading per slot in registration order. A nil registry reads none.
func (r *Registry) ReadHists(dst []HistCounts) []HistCounts {
	if r == nil {
		return dst[:0]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dst = resize(dst, len(r.hists))
	for i, h := range r.hists {
		h.ReadInto(&dst[i])
	}
	return dst
}

// resize returns s with length n, reallocating only when n exceeds its
// capacity. Elements carried over keep their values; callers overwrite
// them.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	//lint:ignore hotalloc grows only when the registry gained slots since the caller's last reading; steady-state readings reuse dst
	return make([]T, n)
}

// Snapshot reads every registered counter and histogram. Call it at
// window boundaries and diff with Delta so benches report only the
// measured interval.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for i, fn := range r.counters {
		s.Counters[r.counterNames[i]] = fn()
	}
	for i, h := range r.hists {
		s.Hists[r.histNames[i]] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time reading of every registered metric.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Get returns one counter (0 when absent).
func (s Snapshot) Get(name string) uint64 { return s.Counters[name] }

// Delta returns this snapshot minus prev: the activity of the measured
// window. Counters are monotonic so the subtraction is exact; gauge-style
// entries that shrank clamp to zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = SubClamp(v, prev.Counters[name])
	}
	for name, h := range s.Hists {
		d.Hists[name] = h.Delta(prev.Hists[name])
	}
	return d
}
