package minidb

// B-tree index implementation. Entries are (key value, rowid) pairs; the
// rowid tie-break makes every entry unique, so the same tree structure
// serves unique and non-unique indexes (uniqueness of key values is
// enforced at the table layer).
//
// The tree follows the classic minimum-degree formulation: every node except
// the root holds between t-1 and 2t-1 entries, and deletion pre-fills nodes
// on the way down so it never needs to back up.
//
// Trees are copy-on-write: clone() returns a tree sharing every node with
// the source, and mutations copy shared nodes along the root-to-leaf path
// before touching them (path copying, keyed by an ownership tag). A
// published tree is therefore immutable and safe for lock-free concurrent
// scans while a writer mutates its private clone.

const btreeMinDegree = 32 // t: max entries per node = 2t-1 = 63

type entry struct {
	key   Value
	rowid int64
}

// cmpEntry orders entries by key, then rowid.
func cmpEntry(a, b entry) int {
	if c := Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.rowid < b.rowid:
		return -1
	case a.rowid > b.rowid:
		return 1
	}
	return 0
}

type bnode struct {
	ents []entry
	kids []*bnode // nil for leaves; otherwise len(kids) == len(ents)+1
	tag  *byte    // ownership tag: the tree whose tag matches may mutate in place
}

func (n *bnode) leaf() bool { return n.kids == nil }

// findEntry returns the position of the first entry >= e and whether an
// exact match sits there.
func (n *bnode) findEntry(e entry) (int, bool) {
	lo, hi := 0, len(n.ents)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpEntry(n.ents[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.ents) && cmpEntry(n.ents[lo], e) == 0
}

type btree struct {
	root *bnode
	size int
	tag  *byte // nodes carrying this tag are exclusively owned by this tree
}

func newBtree() *btree {
	tag := new(byte)
	return &btree{root: &bnode{tag: tag}, tag: tag}
}

// clone returns a copy sharing every node with t. The clone copies shared
// nodes before mutating them; the source must never be mutated again (in the
// engine, sources are published snapshots, which are immutable by contract).
func (t *btree) clone() *btree {
	return &btree{root: t.root, size: t.size, tag: new(byte)}
}

// mutable returns n if this tree owns it, otherwise a copy the tree owns.
// The caller must re-link the returned node into its parent.
func (t *btree) mutable(n *bnode) *bnode {
	if n.tag == t.tag {
		return n
	}
	c := &bnode{tag: t.tag, ents: make([]entry, len(n.ents))}
	copy(c.ents, n.ents)
	if n.kids != nil {
		c.kids = make([]*bnode, len(n.kids))
		copy(c.kids, n.kids)
	}
	return c
}

// insert adds e to the tree. Duplicate (key,rowid) pairs are ignored.
func (t *btree) insert(e entry) {
	t.root = t.mutable(t.root)
	if len(t.root.ents) == 2*btreeMinDegree-1 {
		old := t.root
		t.root = &bnode{kids: []*bnode{old}, tag: t.tag}
		t.splitChild(t.root, 0)
	}
	if t.insertNonFull(t.root, e) {
		t.size++
	}
}

// splitChild splits the full child at position i, hoisting its median.
// n and n.kids[i] must already be owned by t.
func (t *btree) splitChild(n *bnode, i int) {
	child := n.kids[i]
	mid := btreeMinDegree - 1
	median := child.ents[mid]

	right := &bnode{tag: t.tag}
	right.ents = append(right.ents, child.ents[mid+1:]...)
	if !child.leaf() {
		right.kids = append(right.kids, child.kids[mid+1:]...)
		child.kids = child.kids[:mid+1]
	}
	child.ents = child.ents[:mid]

	n.ents = append(n.ents, entry{})
	copy(n.ents[i+1:], n.ents[i:])
	n.ents[i] = median
	n.kids = append(n.kids, nil)
	copy(n.kids[i+2:], n.kids[i+1:])
	n.kids[i+1] = right
}

// insertNonFull descends from the owned node n, copying shared children
// along the path before mutating them.
func (t *btree) insertNonFull(n *bnode, e entry) bool {
	for {
		i, exact := n.findEntry(e)
		if exact {
			return false
		}
		if n.leaf() {
			n.ents = append(n.ents, entry{})
			copy(n.ents[i+1:], n.ents[i:])
			n.ents[i] = e
			return true
		}
		n.kids[i] = t.mutable(n.kids[i])
		if len(n.kids[i].ents) == 2*btreeMinDegree-1 {
			t.splitChild(n, i)
			if c := cmpEntry(n.ents[i], e); c == 0 {
				return false
			} else if c < 0 {
				i++
				n.kids[i] = t.mutable(n.kids[i])
			}
		}
		n = n.kids[i]
	}
}

// delete removes e; it reports whether the entry existed.
func (t *btree) delete(e entry) bool {
	t.root = t.mutable(t.root)
	ok := t.deleteFrom(t.root, e)
	if len(t.root.ents) == 0 && !t.root.leaf() {
		t.root = t.root.kids[0]
	}
	if ok {
		t.size--
	}
	return ok
}

// deleteFrom implements CLRS B-tree deletion over an owned node n: children
// are copied on the way down (path copying), and n always has at least t
// entries when it is not the root, guaranteed by pre-filling on the descent.
func (t *btree) deleteFrom(n *bnode, e entry) bool {
	i, exact := n.findEntry(e)
	if exact {
		if n.leaf() {
			n.ents = append(n.ents[:i], n.ents[i+1:]...)
			return true
		}
		// Internal node: replace with predecessor or successor, or merge.
		n.kids[i] = t.mutable(n.kids[i])
		if len(n.kids[i].ents) >= btreeMinDegree {
			pred := maxEntry(n.kids[i])
			n.ents[i] = pred
			return t.deleteFrom(n.kids[i], pred)
		}
		n.kids[i+1] = t.mutable(n.kids[i+1])
		if len(n.kids[i+1].ents) >= btreeMinDegree {
			succ := minEntry(n.kids[i+1])
			n.ents[i] = succ
			return t.deleteFrom(n.kids[i+1], succ)
		}
		n.mergeChildren(i)
		return t.deleteFrom(n.kids[i], e)
	}
	if n.leaf() {
		return false
	}
	// Ensure the child we descend into is owned and has at least t entries.
	n.kids[i] = t.mutable(n.kids[i])
	if len(n.kids[i].ents) == btreeMinDegree-1 {
		i = t.fillChild(n, i)
	}
	return t.deleteFrom(n.kids[i], e)
}

// fillChild gives child i at least t entries by borrowing from a sibling or
// merging; it returns the (possibly shifted) child index to descend into.
// n and n.kids[i] must be owned by t; siblings are copied as needed.
func (t *btree) fillChild(n *bnode, i int) int {
	switch {
	case i > 0 && len(n.kids[i-1].ents) >= btreeMinDegree:
		// Borrow from left sibling through the separator.
		n.kids[i-1] = t.mutable(n.kids[i-1])
		child, left := n.kids[i], n.kids[i-1]
		child.ents = append(child.ents, entry{})
		copy(child.ents[1:], child.ents)
		child.ents[0] = n.ents[i-1]
		n.ents[i-1] = left.ents[len(left.ents)-1]
		left.ents = left.ents[:len(left.ents)-1]
		if !child.leaf() {
			child.kids = append(child.kids, nil)
			copy(child.kids[1:], child.kids)
			child.kids[0] = left.kids[len(left.kids)-1]
			left.kids = left.kids[:len(left.kids)-1]
		}
		return i
	case i < len(n.kids)-1 && len(n.kids[i+1].ents) >= btreeMinDegree:
		// Borrow from right sibling through the separator.
		n.kids[i+1] = t.mutable(n.kids[i+1])
		child, right := n.kids[i], n.kids[i+1]
		child.ents = append(child.ents, n.ents[i])
		n.ents[i] = right.ents[0]
		right.ents = append(right.ents[:0], right.ents[1:]...)
		if !child.leaf() {
			child.kids = append(child.kids, right.kids[0])
			right.kids = append(right.kids[:0], right.kids[1:]...)
		}
		return i
	case i > 0:
		n.kids[i-1] = t.mutable(n.kids[i-1])
		n.mergeChildren(i - 1)
		return i - 1
	default:
		n.mergeChildren(i)
		return i
	}
}

// mergeChildren merges child i, separator i and child i+1 into child i.
// n and n.kids[i] must be owned; n.kids[i+1] is only read and discarded.
func (n *bnode) mergeChildren(i int) {
	left, right := n.kids[i], n.kids[i+1]
	left.ents = append(left.ents, n.ents[i])
	left.ents = append(left.ents, right.ents...)
	if !left.leaf() {
		left.kids = append(left.kids, right.kids...)
	}
	n.ents = append(n.ents[:i], n.ents[i+1:]...)
	n.kids = append(n.kids[:i+1], n.kids[i+2:]...)
}

func minEntry(n *bnode) entry {
	for !n.leaf() {
		n = n.kids[0]
	}
	return n.ents[0]
}

func maxEntry(n *bnode) entry {
	for !n.leaf() {
		n = n.kids[len(n.kids)-1]
	}
	return n.ents[len(n.ents)-1]
}

// scanRange visits entries with lo <= key <= hi in ascending key order
// (nil bounds are open). fn returns false to stop early. It reports whether
// the scan ran to completion.
func (t *btree) scanRange(lo, hi *Value, fn func(entry) bool) bool {
	return t.root.scan(lo, hi, fn)
}

func (n *bnode) scan(lo, hi *Value, fn func(entry) bool) bool {
	start := 0
	if lo != nil {
		start, _ = n.findEntry(entry{key: *lo, rowid: -1 << 62})
	}
	for i := start; i < len(n.ents); i++ {
		if !n.leaf() {
			if !n.kids[i].scan(lo, hi, fn) {
				return false
			}
		}
		e := n.ents[i]
		if hi != nil && Compare(e.key, *hi) > 0 {
			return false
		}
		if !fn(e) {
			return false
		}
	}
	if !n.leaf() {
		return n.kids[len(n.ents)].scan(lo, hi, fn)
	}
	return true
}

// scanDesc visits entries with lo <= key <= hi in descending key order.
func (t *btree) scanDesc(lo, hi *Value, fn func(entry) bool) bool {
	return t.root.scanDesc(lo, hi, fn)
}

func (n *bnode) scanDesc(lo, hi *Value, fn func(entry) bool) bool {
	end := len(n.ents)
	if hi != nil {
		end, _ = n.findEntry(entry{key: *hi, rowid: 1<<62 - 1})
	}
	if !n.leaf() {
		if !n.kids[end].scanDesc(lo, hi, fn) {
			return false
		}
	}
	for i := end - 1; i >= 0; i-- {
		e := n.ents[i]
		if lo != nil && Compare(e.key, *lo) < 0 {
			return false
		}
		if !fn(e) {
			return false
		}
		if !n.leaf() {
			if !n.kids[i].scanDesc(lo, hi, fn) {
				return false
			}
		}
	}
	return true
}

// checkInvariants validates ordering and occupancy; tests use it.
func (t *btree) checkInvariants() error {
	_, err := t.root.check(true, nil, nil)
	return err
}

type btreeError string

func (e btreeError) Error() string { return string(e) }

func (n *bnode) check(isRoot bool, lo, hi *entry) (int, error) {
	if !isRoot && len(n.ents) < btreeMinDegree-1 {
		return 0, btreeError("node underflow")
	}
	if len(n.ents) > 2*btreeMinDegree-1 {
		return 0, btreeError("node overflow")
	}
	for i := 1; i < len(n.ents); i++ {
		if cmpEntry(n.ents[i-1], n.ents[i]) >= 0 {
			return 0, btreeError("entries out of order")
		}
	}
	if lo != nil && len(n.ents) > 0 && cmpEntry(n.ents[0], *lo) <= 0 {
		return 0, btreeError("entry below lower bound")
	}
	if hi != nil && len(n.ents) > 0 && cmpEntry(n.ents[len(n.ents)-1], *hi) >= 0 {
		return 0, btreeError("entry above upper bound")
	}
	if n.leaf() {
		return 1, nil
	}
	if len(n.kids) != len(n.ents)+1 {
		return 0, btreeError("child count mismatch")
	}
	depth := -1
	for i, kid := range n.kids {
		var klo, khi *entry
		if i > 0 {
			klo = &n.ents[i-1]
		} else {
			klo = lo
		}
		if i < len(n.ents) {
			khi = &n.ents[i]
		} else {
			khi = hi
		}
		d, err := kid.check(false, klo, khi)
		if err != nil {
			return 0, err
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return 0, btreeError("leaves at different depths")
		}
	}
	return depth + 1, nil
}
