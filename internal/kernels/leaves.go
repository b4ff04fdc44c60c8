package kernels

// The box-tree top-k scan of the kNN-join's bucket reducers: the same exact
// answer as a flat scan over all the rows of a block, from the rows of the
// few leaves near the query.
//
// BoxTree.Build splits the block's rows at the median of the widest side of
// each node's cell — the region its ancestors' splits leave it — until a
// node holds at most leafRows rows, gives every node the tight box of its
// rows, and copies the coordinates leaf-major, so that one leaf is one
// contiguous strip for sqDistRange. TopKLeaves walks the tree depth-first,
// nearer child first, and skips a node whose box bound strictly exceeds the
// accumulator's threshold.
//
// The box bound needs no slack in floating point. For a row x in a node's
// box [lo, hi] and a query coordinate q[t] < lo[t], the exact x[t] − q[t] is
// at least the exact lo[t] − q[t], because lo[t] is the value of some row's
// coordinate; rounding is monotone and symmetric in sign, so the kernel's
// |q[t] − x[t]| as computed is at least the gap lo[t] − q[t] as computed,
// and its square at least the gap's square (likewise q[t] − hi[t] above the
// box, with the kernel's own operand order). sqDist and every lane of
// sqDist4 add the non-negative terms in ascending t, and boxBound adds the
// gap terms — zero on an axis where q[t] lies inside the box — in ascending
// t too; each partial sum of the bound is therefore at most the kernel's,
// so the bound is at most the row's d². A node whose bound strictly exceeds
// the threshold holds no row that could enter the accumulator, and the
// threshold only falls, so a node skipped once stays skippable. Ties
// (bound == threshold) keep walking, because a tied row with a lower index
// still displaces the kept one. The rows are observed under their original
// indices, so the lowest-row-index rule means what it means for a flat scan.
//
// Rows with a NaN or ±Inf coordinate are left out of the tree: their
// distance to any query is +Inf or NaN, which TopKAcc rejects anyway. A
// query with a NaN or ±Inf coordinate has no eligible row and evaluates
// nothing.

import "slices"

// leafRows is the most rows a leaf holds. Smaller leaves evaluate fewer
// rows per query and compute more box bounds: on the kNN-join's 4-d blobs,
// 8 / 16 / 32 rows per leaf evaluated 112 / 170 / 246 rows per query with
// 109 / 79 / 54 box bounds.
const leafRows = 16

// boxNode is one node of a BoxTree: rows [lo, hi) of the leaf-major order.
// A node with more than leafRows rows has two children, the left one at the
// next index (pre-order) and the right one at right.
type boxNode struct {
	lo, hi, right int32
}

// sortKey is one row under the split order: ascending coordinate on the
// split axis, then ascending row index, a total order of distinct rows.
type sortKey struct {
	c float64
	r int32
}

func (a sortKey) less(b sortKey) bool { return a.c < b.c || (a.c == b.c && a.r < b.r) }

// BoxTree is a median-split tree over the rows of one coordinate block,
// rebuilt in place by Build and scanned by TopKLeaves. A built tree is read
// only by TopKLeaves, so several goroutines may scan it at once.
type BoxTree struct {
	dim   int
	rows  []int32   // the block's row index of each leaf-major row
	data  []float64 // the coordinates of rows, leaf-major
	nodes []boxNode
	box   []float64 // node i's lo at [2i·dim, (2i+1)·dim), its hi right after
	keys  []sortKey // build buffer: the finite rows, leaf-major once split
	cell  []float64 // build buffer: the current node's cell, lo then hi
}

// Build replaces the tree with one over the rows of data (rows of length
// dim ≥ 1) whose coordinates are all finite. It depends only on the rows'
// coordinates and indices, never on the tree's earlier contents.
func (t *BoxTree) Build(data []float64, dim int) {
	if dim < 1 {
		panic("kernels: BoxTree needs dim >= 1")
	}
	t.dim = dim
	t.keys, t.nodes = t.keys[:0], t.nodes[:0]
	n := len(data) / dim
next:
	for r := 0; r < n; r++ {
		for _, v := range data[r*dim : (r+1)*dim] {
			if !finite(v) {
				continue next
			}
		}
		t.keys = append(t.keys, sortKey{r: int32(r)})
	}
	n = len(t.keys)
	t.rows = slices.Grow(t.rows[:0], n)[:n]
	t.data = slices.Grow(t.data[:0], n*dim)[:n*dim]
	if n == 0 {
		t.box = t.box[:0]
		return
	}
	// The root's cell is the tight box of every row.
	t.cell = slices.Grow(t.cell[:0], 2*dim)[:2*dim]
	lo, hi := t.cell[:dim], t.cell[dim:]
	copy(lo, data[int(t.keys[0].r)*dim:][:dim])
	copy(hi, lo)
	for _, k := range t.keys[1:] {
		for j, v := range data[int(k.r)*dim:][:dim] {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	t.split(data, 0, n)
	for i, k := range t.keys {
		t.rows[i] = k.r
		copy(t.data[i*dim:(i+1)*dim], data[int(k.r)*dim:])
	}
	// Boxes bottom-up: children come after their parent in pre-order.
	t.box = slices.Grow(t.box[:0], 2*dim*len(t.nodes))[:2*dim*len(t.nodes)]
	for i := len(t.nodes) - 1; i >= 0; i-- {
		nd := t.nodes[i]
		lo, hi := t.nodeBox(i)
		if nd.hi-nd.lo <= leafRows {
			copy(lo, t.data[int(nd.lo)*dim:][:dim])
			copy(hi, lo)
			for r := int(nd.lo) + 1; r < int(nd.hi); r++ {
				for j, v := range t.data[r*dim:][:dim] {
					lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
				}
			}
			continue
		}
		llo, lhi := t.nodeBox(i + 1)
		rlo, rhi := t.nodeBox(int(nd.right))
		for j := range lo {
			lo[j], hi[j] = min(llo[j], rlo[j]), max(lhi[j], rhi[j])
		}
	}
}

// nodeBox returns node i's box.
func (t *BoxTree) nodeBox(i int) (lo, hi []float64) {
	b := t.box[2*i*t.dim:][:2*t.dim]
	return b[:t.dim], b[t.dim:]
}

// split appends the subtree over the rows of keys [lo, hi), whose cell is
// t.cell, and orders those keys so that every leaf's rows are contiguous.
func (t *BoxTree) split(data []float64, lo, hi int) {
	i := len(t.nodes)
	t.nodes = append(t.nodes, boxNode{lo: int32(lo), hi: int32(hi)})
	if hi-lo <= leafRows {
		return
	}
	dim := t.dim
	axis, widest := 0, -inf
	for j := 0; j < dim; j++ {
		if span := t.cell[dim+j] - t.cell[j]; span > widest {
			axis, widest = j, span
		}
	}
	keys := t.keys[lo:hi]
	for x, k := range keys {
		keys[x].c = data[int(k.r)*dim+axis]
	}
	mid := (hi - lo) / 2
	selectKey(keys, mid)
	// Left of the median key lie rows at or below its coordinate, right of
	// it rows at or above.
	c := keys[mid].c
	save := t.cell[dim+axis]
	t.cell[dim+axis] = c
	t.split(data, lo, lo+mid)
	t.cell[dim+axis] = save
	t.nodes[i].right = int32(len(t.nodes))
	save = t.cell[axis]
	t.cell[axis] = c
	t.split(data, lo+mid, hi)
	t.cell[axis] = save
}

// selectKey reorders keys so that keys[m] is the key of rank m, with the
// smaller keys before it and the larger after: Hoare's selection with a
// median-of-three pivot, finished by a sort if it stops converging.
func selectKey(keys []sortKey, m int) {
	lo, hi := 0, len(keys)-1
	for rounds := 0; hi > lo; rounds++ {
		if rounds > 64 {
			slices.SortFunc(keys[lo:hi+1], func(a, b sortKey) int {
				if a.less(b) {
					return -1
				}
				return 1
			})
			return
		}
		mid := lo + (hi-lo)/2
		if keys[mid].less(keys[lo]) {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if keys[hi].less(keys[lo]) {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if keys[hi].less(keys[mid]) {
			keys[hi], keys[mid] = keys[mid], keys[hi]
		}
		p := keys[mid]
		i, j := lo, hi
		for i <= j {
			for keys[i].less(p) {
				i++
			}
			for p.less(keys[j]) {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		// Now keys[lo..j] < p's rank ≤ keys[i..hi], and any key between j
		// and i is p itself.
		switch {
		case m <= j:
			hi = j
		case m >= i:
			lo = i
		default:
			return
		}
	}
}

// boxBound returns Σ_t gap_t² from q to the box [lo, hi], added in
// ascending t: a lower bound on the d² of every row inside the box.
func boxBound(q, lo, hi []float64) float64 {
	var s float64
	for t, x := range q {
		var g float64
		if x < lo[t] {
			g = lo[t] - x
		} else if x > hi[t] {
			g = x - hi[t]
		}
		s += g * g
	}
	return s
}

// TopKLeaves scans the rows of tree into acc, which the caller has Reset
// for this query, and returns how many distances it evaluated and how many
// box bounds it computed. The kept set is exactly what TopKRange over the
// block the tree was built from keeps.
func TopKLeaves(tree *BoxTree, q []float64, acc *TopKAcc) (evaluated, boxChecks int) {
	dim := tree.dim
	if len(tree.nodes) == 0 {
		return 0, 0
	}
	q = q[:dim]
	for _, v := range q {
		if !finite(v) {
			return 0, 0
		}
	}
	type visit struct {
		node  int32
		bound float64
	}
	// Every split halves a node's rows, so a tree over fewer than 2³¹ rows
	// is under 32 levels deep, and the stack holds at most one pending
	// sibling per level, plus the two children just pushed.
	var stack [64]visit
	lo, hi := tree.nodeBox(0)
	stack[0] = visit{0, boxBound(q, lo, hi)}
	sp, boxChecks := 1, 1
	var d2 [leafRows]float64
	for sp > 0 {
		sp--
		v := stack[sp]
		if v.bound > acc.Threshold() {
			continue
		}
		nd := tree.nodes[v.node]
		if n := int(nd.hi - nd.lo); n <= leafRows {
			strip := d2[:n]
			sqDistRange(q, tree.data, int(nd.lo), strip)
			rows := tree.rows[nd.lo:nd.hi]
			thr := acc.Threshold()
			for x, d := range strip {
				if d > thr {
					continue
				}
				acc.observe(rows[x], d)
				thr = acc.Threshold()
			}
			evaluated += n
			continue
		}
		near, far := v.node+1, nd.right
		lo, hi := tree.nodeBox(int(near))
		bn := boxBound(q, lo, hi)
		lo, hi = tree.nodeBox(int(far))
		bf := boxBound(q, lo, hi)
		boxChecks += 2
		if bf < bn {
			near, far, bn, bf = far, near, bf, bn
		}
		stack[sp], stack[sp+1] = visit{far, bf}, visit{near, bn}
		sp += 2
	}
	return evaluated, boxChecks
}
