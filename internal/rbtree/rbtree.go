// Package rbtree implements an ordered red-black tree keyed by uint64,
// the structure Linux uses for the per-process VMA tree and that our ext4
// model uses for free-extent indexing. Keys are unique; values are generic.
//
// Both client structures store non-overlapping ranges keyed by range start,
// so range queries ("which VMA contains this address", "first free extent
// at or after X") reduce to Floor/Ceiling lookups.
package rbtree

type color bool

const (
	red   color = false
	black color = true
)

type node[V any] struct {
	key                 uint64
	val                 V
	left, right, parent *node[V]
	color               color
}

// Tree is an ordered red-black tree from uint64 keys to V values.
// The zero value is an empty tree ready to use.
type Tree[V any] struct {
	root *node[V]
	size int
	// free holds deleted nodes for Insert to reuse, so a tree whose size
	// stays steady under insert/delete churn stops allocating.
	free []*node[V]
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value stored at key.
func (t *Tree[V]) Get(key uint64) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Insert adds or replaces the entry at key and reports whether the key was
// already present.
func (t *Tree[V]) Insert(key uint64, val V) bool {
	var parent *node[V]
	n := t.root
	for n != nil {
		parent = n
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			n.val = val
			return true
		}
	}
	nn := t.newNode()
	*nn = node[V]{key: key, val: val, parent: parent, color: red}
	if parent == nil {
		t.root = nn
	} else if key < parent.key {
		parent.left = nn
	} else {
		parent.right = nn
	}
	t.size++
	t.fixInsert(nn)
	return false
}

// Delete removes the entry at key, reporting whether it existed.
func (t *Tree[V]) Delete(key uint64) bool {
	n := t.root
	for n != nil && n.key != key {
		if key < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return false
	}
	t.deleteNode(n)
	t.size--
	*n = node[V]{} // drop the value's references while the node waits
	t.free = append(t.free, n)
	return true
}

// newNode takes a deleted node off the free list, allocating only when
// the tree grows past its earlier size.
func (t *Tree[V]) newNode() *node[V] {
	if k := len(t.free); k > 0 {
		n := t.free[k-1]
		t.free[k-1] = nil
		t.free = t.free[:k-1]
		return n
	}
	return &node[V]{}
}

// Floor returns the entry with the largest key <= key.
func (t *Tree[V]) Floor(key uint64) (uint64, V, bool) {
	var best *node[V]
	n := t.root
	for n != nil {
		if n.key == key {
			return n.key, n.val, true
		}
		if n.key < key {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// Ceiling returns the entry with the smallest key >= key.
func (t *Tree[V]) Ceiling(key uint64) (uint64, V, bool) {
	var best *node[V]
	n := t.root
	for n != nil {
		if n.key == key {
			return n.key, n.val, true
		}
		if n.key > key {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// Min returns the smallest entry.
func (t *Tree[V]) Min() (uint64, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.key, n.val, true
}

// Max returns the largest entry.
func (t *Tree[V]) Max() (uint64, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// Ascend calls fn for each entry with key >= from in ascending order until
// fn returns false.
func (t *Tree[V]) Ascend(from uint64, fn func(key uint64, val V) bool) {
	n := t.ceilingNode(from)
	for n != nil {
		if !fn(n.key, n.val) {
			return
		}
		n = successor(n)
	}
}

// All calls fn for every entry in ascending order until fn returns false.
func (t *Tree[V]) All(fn func(key uint64, val V) bool) { t.Ascend(0, fn) }

func (t *Tree[V]) ceilingNode(key uint64) *node[V] {
	var best *node[V]
	n := t.root
	for n != nil {
		if n.key == key {
			return n
		}
		if n.key > key {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	return best
}

func successor[V any](n *node[V]) *node[V] {
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	p := n.parent
	for p != nil && n == p.right {
		n, p = p, p.parent
	}
	return p
}

// --- balancing --------------------------------------------------------------

func (t *Tree[V]) rotateLeft(x *node[V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[V]) rotateRight(x *node[V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[V]) fixInsert(z *node[V]) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			u := gp.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

func (t *Tree[V]) deleteNode(z *node[V]) {
	y := z
	yColor := y.color
	var x, xParent *node[V]
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.fixDelete(x, xParent)
	}
}

func (t *Tree[V]) transplant(u, v *node[V]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func isBlack[V any](n *node[V]) bool { return n == nil || n.color == black }

func (t *Tree[V]) fixDelete(x *node[V], parent *node[V]) {
	for x != t.root && isBlack(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.right) {
					if w.left != nil {
						w.left.color = black
					}
					w.color = red
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = black
				if w.right != nil {
					w.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if isBlack(w.right) && isBlack(w.left) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.left) {
					if w.right != nil {
						w.right.color = black
					}
					w.color = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = black
				if w.left != nil {
					w.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = black
	}
}

// checkInvariants validates red-black properties; used by tests.
func (t *Tree[V]) checkInvariants() (ok bool, reason string) {
	if t.root == nil {
		return true, ""
	}
	if t.root.color != black {
		return false, "root not black"
	}
	blackHeight := -1
	var walk func(n *node[V], bh int, lo, hi uint64, loSet, hiSet bool) bool
	walk = func(n *node[V], bh int, lo, hi uint64, loSet, hiSet bool) bool {
		if n == nil {
			if blackHeight == -1 {
				blackHeight = bh
			}
			if bh != blackHeight {
				reason = "uneven black height"
				return false
			}
			return true
		}
		if loSet && n.key <= lo {
			reason = "order violation"
			return false
		}
		if hiSet && n.key >= hi {
			reason = "order violation"
			return false
		}
		if n.color == red {
			if !isBlack(n.left) || !isBlack(n.right) {
				reason = "red node with red child"
				return false
			}
		} else {
			bh++
		}
		if n.left != nil && n.left.parent != n {
			reason = "broken parent link"
			return false
		}
		if n.right != nil && n.right.parent != n {
			reason = "broken parent link"
			return false
		}
		return walk(n.left, bh, lo, n.key, loSet, true) &&
			walk(n.right, bh, n.key, hi, true, hiSet)
	}
	return walk(t.root, 0, 0, 0, false, false), reason
}
