package kernels

// The box-tree top-k scan: the same exact answer as a flat scan over the
// rows a walk admits, from the rows of the few leaves near the query. The
// kNN-join's bucket reducers walk a tree over one bucket's block and admit
// every row; the serving engine walks one tree over all its rows and admits
// the rows of the query's LSH buckets through a LeafFilter. Within runs the
// same walk as a radius query: the rows strictly within a bound of q.
//
// BoxTree.Build splits the block's rows at the median of the widest side of
// each node's cell — the region its ancestors' splits leave it — until a
// node holds at most leafRows rows, and gives every node the tight box of
// its rows. The tree holds row indices and boxes only: a leaf's rows are
// read from the block through their indices, by TopKRows' arithmetic, or
// through TopKCompact's q8 filter in front of it. TopKLeaves walks the tree
// depth-first, nearer child first, and skips a node whose box bound
// strictly exceeds the accumulator's threshold.
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
// indices, so the lowest-row-index rule means what it means for a flat scan,
// and the kept set does not depend on the order the leaves are visited in.
// The q8 filter never changes what the accumulator holds after a leaf, so a
// walk through it visits the leaves a float64 walk visits.
//
// Rows with a NaN or ±Inf coordinate are left out of the tree: their
// distance to any query is +Inf or NaN, which TopKAcc rejects anyway. A
// query with a NaN or ±Inf coordinate has no eligible row and evaluates
// nothing.

import (
	"slices"
	"sync"

	"repro/internal/points"
)

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

// leafRows is the most rows a leaf holds. Smaller leaves evaluate fewer
// rows per query and compute more box bounds: on the kNN-join's 4-d blobs,
// 8 / 16 / 32 rows per leaf evaluated 112 / 170 / 246 rows per query with
// 109 / 79 / 54 box bounds.
const leafRows = 16

// boxNode is one node of a BoxTree: rows [lo, hi) of the leaf order. A node
// with more than leafRows rows has two children, the left one at the next
// index (pre-order) and the right one at right.
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

// keyBufs pools Build's sort keys, so that a built tree keeps only its
// rows, nodes and boxes.
var keyBufs = sync.Pool{New: func() any { return new([]sortKey) }}

// BoxTree is a median-split tree over the rows of one coordinate block,
// rebuilt in place by Build and scanned by TopKLeaves. A built tree is read
// only by TopKLeaves, so several goroutines may scan it at once.
type BoxTree struct {
	dim   int
	rows  []int32 // the block's row index of each row, in leaf order
	nodes []boxNode
	box   []float64 // node i's lo at [2i·dim, (2i+1)·dim), its hi right after
}

// Build replaces the tree with one over the rows of data (rows of length
// dim ≥ 1) whose coordinates are all finite. It depends only on the rows'
// coordinates and indices, never on the tree's earlier contents.
func (t *BoxTree) Build(data []float64, dim int) { t.BuildWorkers(data, dim, 1) }

// BuildWorkers is Build on up to workers goroutines: below a split, the two
// subtrees build side by side until every goroutine has one. The tree does
// not depend on workers.
func (t *BoxTree) BuildWorkers(data []float64, dim, workers int) {
	if dim < 1 {
		panic("kernels: BoxTree needs dim >= 1")
	}
	t.dim = dim
	buf := keyBufs.Get().(*[]sortKey)
	defer keyBufs.Put(buf)
	keys := (*buf)[:0]
	// The root's cell is the tight box of every row.
	cell := make([]float64, 2*dim)
	lo, hi := cell[:dim], cell[dim:]
	for j := range lo {
		lo[j], hi[j] = inf, -inf
	}
	n := len(data) / dim
next:
	for r := 0; r < n; r++ {
		row := data[r*dim : (r+1)*dim]
		for _, v := range row {
			if !finite(v) {
				continue next
			}
		}
		keys = append(keys, sortKey{r: int32(r)})
		for j, v := range row {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	*buf = keys
	n = len(keys)
	nn := nodeCount(n)
	t.rows = slices.Grow(t.rows[:0], n)[:n]
	t.nodes = slices.Grow(t.nodes[:0], nn)[:nn]
	t.box = slices.Grow(t.box[:0], 2*dim*nn)[:2*dim*nn]
	if n == 0 {
		return
	}
	t.split(data, keys, 0, n, 0, cell, workers)
}

// nodeCount returns the number of nodes of a tree over n rows.
func nodeCount(n int) int {
	switch {
	case n == 0:
		return 0
	case n <= leafRows:
		return 1
	}
	return 1 + nodeCount(n/2) + nodeCount(n-n/2)
}

// split builds node i over keys [lo, hi), whose cell is cell (lo, then hi),
// and its subtree, on up to workers goroutines, and returns the index just
// past the subtree. It orders those keys so that every leaf's rows are
// contiguous, writes them to t.rows, and gives every node of the subtree
// its tight box, children before their parent.
func (t *BoxTree) split(data []float64, keys []sortKey, lo, hi, i int, cell []float64, workers int) int {
	dim := t.dim
	t.nodes[i] = boxNode{lo: int32(lo), hi: int32(hi)}
	blo, bhi := t.nodeBox(i)
	if hi-lo <= leafRows {
		for x, k := range keys[lo:hi] {
			t.rows[lo+x] = k.r
			row := data[int(k.r)*dim:][:dim]
			if x == 0 {
				copy(blo, row)
				copy(bhi, row)
				continue
			}
			for j, v := range row {
				blo[j], bhi[j] = min(blo[j], v), max(bhi[j], v)
			}
		}
		return i + 1
	}
	axis, widest := 0, -inf
	for j := 0; j < dim; j++ {
		if span := cell[dim+j] - cell[j]; span > widest {
			axis, widest = j, span
		}
	}
	part := keys[lo:hi]
	for x, k := range part {
		part[x].c = data[int(k.r)*dim+axis]
	}
	mid := (hi - lo) / 2
	selectKey(part, mid)
	// Left of the median key lie rows at or below its coordinate, right of
	// it rows at or above.
	c := part[mid].c
	left, right, end := i+1, 0, 0
	if workers > 1 {
		lcell, rcell := slices.Clone(cell), cell
		lcell[dim+axis], rcell[axis] = c, c
		right = left + nodeCount(mid)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.split(data, keys, lo, lo+mid, left, lcell, workers/2)
		}()
		end = t.split(data, keys, lo+mid, hi, right, rcell, workers-workers/2)
		wg.Wait()
	} else {
		save := cell[dim+axis]
		cell[dim+axis] = c
		right = t.split(data, keys, lo, lo+mid, left, cell, 1)
		cell[dim+axis] = save
		save = cell[axis]
		cell[axis] = c
		end = t.split(data, keys, lo+mid, hi, right, cell, 1)
		cell[axis] = save
	}
	t.nodes[i].right = int32(right)
	llo, lhi := t.nodeBox(left)
	rlo, rhi := t.nodeBox(right)
	for j := range blo {
		blo[j], bhi[j] = min(llo[j], rlo[j]), max(lhi[j], rhi[j])
	}
	return end
}

// nodeBox returns node i's box.
func (t *BoxTree) nodeBox(i int) (lo, hi []float64) {
	b := t.box[2*i*t.dim:][:2*t.dim]
	return b[:t.dim], b[t.dim:]
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

// A LeafFilter returns the rows of leaf — one leaf's rows in tree order, or
// those of them within Within's radius — that a walk may evaluate or list,
// in storage of its own that the walk is done with before the next call.
type LeafFilter func(leaf []int32) []int32

// LeafStats counts the work of one TopKLeaves walk.
type LeafStats struct {
	Rows   int // rows evaluated: their compact or exact distance computed
	Exact  int // exact distances computed (Rows without a q8 filter)
	Boxes  int // box bounds computed
	Tested int // leaf rows offered to the filter (0 without one)
}

// TopKLeaves scans into acc, which the caller has Reset for this query, the
// rows of tree that keep admits — every row when keep is nil — reading them
// from data, the block the tree was built from, through c's filter (none
// when c is nil; see TopKCompact). The kept set is exactly what TopKRows
// over the admitted rows keeps: TopKRange over the whole block when keep is
// nil. Each row is offered to keep at most once and evaluated at most once.
func TopKLeaves(tree *BoxTree, data, q []float64, c *Compact, keep LeafFilter, acc *TopKAcc) (st LeafStats) {
	dim := tree.dim
	if len(tree.nodes) == 0 {
		return st
	}
	q = q[:dim]
	for _, v := range q {
		if !finite(v) {
			return st
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
	sp := 1
	st.Boxes = 1
	var d2 [leafRows]float64
	for sp > 0 {
		sp--
		v := stack[sp]
		if v.bound > acc.Threshold() {
			continue
		}
		nd := tree.nodes[v.node]
		if nd.hi-nd.lo <= leafRows {
			rows := tree.rows[nd.lo:nd.hi]
			if keep != nil {
				st.Tested += len(rows)
				rows = keep(rows)
			}
			st.Rows += len(rows)
			switch {
			case len(rows) == 0:
			case c == nil || c.codes == nil:
				// TopKRows on a leaf-sized strip.
				observeRows(data, q, rows, d2[:len(rows)], acc)
				st.Exact += len(rows)
			default:
				st.Exact += TopKCompact(data, dim, q, c, rows, acc)
			}
			continue
		}
		near, far := v.node+1, nd.right
		lo, hi := tree.nodeBox(int(near))
		bn := boxBound(q, lo, hi)
		lo, hi = tree.nodeBox(int(far))
		bf := boxBound(q, lo, hi)
		st.Boxes += 2
		if bf < bn {
			near, far, bn, bf = far, near, bf, bn
		}
		stack[sp], stack[sp+1] = visit{far, bf}, visit{near, bn}
		sp += 2
	}
	return st
}

// Within appends to dst, and returns, every row of tree — built from data —
// whose points.SqDist to q is strictly below r2 and that keep admits (every
// such row when keep is nil), each once: the one radius query of the
// repository, behind exact DP's cutoff ρ, DBSCAN's neighbourhoods and the
// density fold of an ingested point. keep is offered, leaf by leaf, just the
// leaf's rows within r2, in tree order, so a filter dearer than a distance
// runs on few rows. One TopKLeaves walk does the work, its k = 1 sink
// capped at r2 and never fed: the threshold stays r2, so the walk opens
// exactly the nodes whose box bound is at most r2, and since that bound is
// at most every row's points.SqDist (see the comment at the top of this
// file), no node it skips holds a row within r2. A row left out of the
// tree, or any row under a query with a NaN or ±Inf coordinate, is at a
// NaN or +Inf distance, never below r2, so the list equals a flat
// points.SqDist loop over the admitted rows for every r2.
func Within(tree *BoxTree, data, q []float64, r2 float64, keep LeafFilter, dst []int32) []int32 {
	dim := tree.dim
	q = q[:dim]
	var acc TopKAcc
	acc.Reset(1)
	acc.Cap(r2)
	TopKLeaves(tree, data, q, nil, func(leaf []int32) []int32 {
		n := len(dst)
		for _, r := range leaf {
			if points.SqDist(q, data[int(r)*dim:][:dim]) < r2 {
				dst = append(dst, r)
			}
		}
		if keep != nil && len(dst) > n {
			dst = append(dst[:n], keep(dst[n:])...)
		}
		return nil
	}, &acc)
	return dst
}
