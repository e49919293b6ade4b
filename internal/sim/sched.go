package sim

// threadHeap is a concrete-typed binary min-heap of threads ordered by
// (wakeAt, seq). It replaces container/heap on the hottest scheduler
// path: heap.Push/Pop box every *Thread through `any`, and that
// allocation shows up in whole-program hot-path profiles. seq values are
// unique (the engine stamps them from a single counter), so the order is
// total and any correct binary heap pops the identical sequence —
// swapping the implementation cannot change dispatch order.
type threadHeap struct {
	ts []*Thread
}

func (h *threadHeap) len() int { return len(h.ts) }

func (h *threadHeap) less(i, j int) bool {
	a, b := h.ts[i], h.ts[j]
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
	}
	return a.seq < b.seq
}

func (h *threadHeap) swap(i, j int) {
	h.ts[i], h.ts[j] = h.ts[j], h.ts[i]
	h.ts[i].index = i
	h.ts[j].index = j
}

func (h *threadHeap) push(t *Thread) {
	t.index = len(h.ts)
	//lint:ignore hotalloc ready-heap backing array: amortized, reaches steady capacity after warm-up
	h.ts = append(h.ts, t)
	h.up(t.index)
}

func (h *threadHeap) pop() *Thread {
	n := len(h.ts)
	if n == 0 {
		return nil
	}
	t := h.ts[0]
	h.swap(0, n-1)
	h.ts[n-1] = nil
	h.ts = h.ts[:n-1]
	if n > 1 {
		h.down(0)
	}
	t.index = -1
	return t
}

func (h *threadHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *threadHeap) down(i int) {
	n := len(h.ts)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}
