package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/points"
)

// Tests of the box-tree top-k scan. The contract: TopKLeaves leaves the
// accumulator exactly as TopKRange over the whole block leaves it — same
// rows, same distances, same (distance, row) tie order — evaluates each
// eligible row at most once, and walks every leaf while the threshold is
// +Inf.

// checkTree fails unless tree is a well-formed BoxTree over data: its rows
// are the rows with every coordinate finite, each once; every leaf holds
// 1 … leafRows rows; every internal node splits its range in two halves at
// its left child (the next node) and its right child; and every box is the
// tight box of its rows.
func checkTree(t *testing.T, what string, tree *BoxTree, data []float64, dim int) {
	t.Helper()
	n := len(data) / dim
	var want []int32
	for r := 0; r < n; r++ {
		ok := true
		for _, v := range data[r*dim : (r+1)*dim] {
			ok = ok && finite(v)
		}
		if ok {
			want = append(want, int32(r))
		}
	}
	if len(tree.rows) != len(want) {
		t.Fatalf("%s: tree holds %d rows, %d rows are finite", what, len(tree.rows), len(want))
	}
	seen := make(map[int32]bool, len(want))
	for _, r := range tree.rows {
		if seen[r] {
			t.Fatalf("%s: row %d listed twice", what, r)
		}
		seen[r] = true
	}
	for _, r := range want {
		if !seen[r] {
			t.Fatalf("%s: finite row %d missing", what, r)
		}
	}
	if len(want) == 0 {
		if len(tree.nodes) != 0 {
			t.Fatalf("%s: %d nodes over no rows", what, len(tree.nodes))
		}
		return
	}
	var walk func(i, lo, hi int) int
	walk = func(i, lo, hi int) int {
		nd := tree.nodes[i]
		if int(nd.lo) != lo || int(nd.hi) != hi || hi <= lo {
			t.Fatalf("%s: node %d covers [%d, %d), want [%d, %d)", what, i, nd.lo, nd.hi, lo, hi)
		}
		blo, bhi := tree.nodeBox(i)
		for j := 0; j < dim; j++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, r := range tree.rows[lo:hi] {
				mn, mx = min(mn, data[int(r)*dim+j]), max(mx, data[int(r)*dim+j])
			}
			if blo[j] != mn || bhi[j] != mx {
				t.Fatalf("%s: node %d axis %d box [%v, %v], rows span [%v, %v]", what, i, j, blo[j], bhi[j], mn, mx)
			}
		}
		if hi-lo <= leafRows {
			return i + 1
		}
		mid := lo + (hi-lo)/2
		if next := walk(i+1, lo, mid); int(nd.right) != next {
			t.Fatalf("%s: node %d's right child is %d, its left subtree ends at %d", what, i, nd.right, next)
		}
		return walk(int(nd.right), mid, hi)
	}
	if end := walk(0, 0, len(want)); end != len(tree.nodes) {
		t.Fatalf("%s: the tree walk ends at node %d of %d", what, end, len(tree.nodes))
	}
}

// leavesCase runs TopKLeaves on tree, built from data, and fails unless it
// equals the flat scan. It returns the distances and box bounds computed.
func leavesCase(t *testing.T, what string, tree *BoxTree, data []float64, dim int, q []float64, k int) (evaluated, checks int) {
	t.Helper()
	n := len(data) / dim
	flat := NewTopKAcc(k)
	TopKRange(data, dim, q, 0, n, flat)
	want := flat.Append(nil)
	acc := NewTopKAcc(k)
	st := TopKLeaves(tree, data, q, nil, nil, acc)
	evaluated, checks = st.Rows, st.Boxes
	if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s dim %d n %d k %d q %v: TopKLeaves = %v, TopKRange = %v", what, dim, n, k, q, got, want)
	}
	eligible := len(tree.rows)
	qFinite := true
	for _, v := range q {
		qFinite = qFinite && finite(v)
	}
	switch {
	case !qFinite:
		if evaluated != 0 || checks != 0 {
			t.Fatalf("%s: %d rows and %d boxes evaluated for the query %v", what, evaluated, checks, q)
		}
	case evaluated > eligible:
		t.Fatalf("%s: %d rows evaluated of %d", what, evaluated, eligible)
	case k >= eligible && evaluated != eligible:
		t.Fatalf("%s: k %d ≥ %d eligible rows but %d evaluated", what, k, eligible, evaluated)
	case checks > len(tree.nodes):
		t.Fatalf("%s: %d box bounds computed for %d nodes", what, checks, len(tree.nodes))
	}
	return evaluated, checks
}

func TestTopKLeavesMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := []int{0, 1, 2, 3, 5, leafRows - 1, leafRows, leafRows + 1, 2*leafRows + 1, 4*leafRows - 1, nnTile + 3, 500, 2000}
	var tree BoxTree
	for dim := 1; dim <= 9; dim++ {
		for _, n := range sizes {
			blocks := map[string][]float64{
				"random":  randBlock(rng, n, dim, 10), // plants duplicate rows and near ties
				"lattice": latticeRows(rng, n, dim),   // mass distance ties, NaN/±Inf/overflow rows
			}
			flatAxis := randBlock(rng, n, dim, 10)
			for r := 0; r < n; r++ {
				flatAxis[r*dim] = 2.5 // all rows equal on axis 0
			}
			blocks["equal-on-axis"] = flatAxis
			same := make([]float64, n*dim) // every row the same point: only the row index separates them
			for i := range same {
				same[i] = float64(i % dim)
			}
			blocks["one-point"] = same

			for what, data := range blocks {
				tree.Build(data, dim)
				checkTree(t, what, &tree, data, dim)
				for _, k := range []int{1, 3, 10, 20, n + 5} {
					inside := randQuery(rng, dim)
					if what == "lattice" || what == "one-point" {
						for j := range inside {
							inside[j] = float64(rng.Intn(5))
						}
					}
					left, right := make([]float64, dim), make([]float64, dim)
					for j := range left {
						left[j], right[j] = -1e3, 1e3
					}
					hostile := append([]float64(nil), inside...)
					hostile[rng.Intn(dim)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200}[rng.Intn(5)]
					for _, q := range [][]float64{left, inside, right, hostile} {
						leavesCase(t, what, &tree, data, dim, q, k)
					}
				}
			}
		}
	}
}

// A query with NaN, ±Inf or an overflowing coordinate on any axis keeps what
// the flat scan keeps, over a tree of several leaves with hostile rows of its
// own; a non-finite query evaluates no row and no box (checked in leavesCase).
func TestTopKLeavesHostileQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var tree BoxTree
	for _, dim := range []int{1, 2, 5} {
		data := latticeRows(rng, 2*nnTile+3, dim)
		tree.Build(data, dim)
		checkTree(t, "hostile query", &tree, data, dim)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
			for at := 0; at < dim; at++ {
				q := make([]float64, dim)
				q[at] = bad
				leavesCase(t, "hostile query", &tree, data, dim, q, 4)
			}
		}
	}
}

// The boundary of the skip test: a node whose box bound equals the
// threshold is still walked, and a row in it that ties the kept row's
// distance with a lower index displaces it; one ULP farther, the node is
// skipped.
func TestTopKLeavesBoundaryTie(t *testing.T) {
	// Rows 16–31 lie left of the query, 0–15 right of it, so the median
	// split puts each side in its own leaf. Both boxes lie 1 from the query,
	// so the left leaf (the first child on a tie) is walked first and keeps
	// row 31 at d² = 1; the right leaf's bound is then exactly the threshold.
	data := make([]float64, 2*leafRows)
	for r := range data {
		data[r] = 5
		if r >= leafRows {
			data[r] = -5
		}
	}
	data[2*leafRows-1] = -1
	for _, c := range []struct {
		at        float64
		wantRow   int32
		evaluated int
	}{
		{1, 0, 2 * leafRows},
		{math.Nextafter(1, 2), 2*leafRows - 1, leafRows},
	} {
		data[0] = c.at
		var tree BoxTree
		tree.Build(data, 1)
		if len(tree.nodes) != 3 {
			t.Fatalf("%d nodes, want a root and two leaves", len(tree.nodes))
		}
		acc := NewTopKAcc(1)
		st := TopKLeaves(&tree, data, []float64{0}, nil, nil, acc)
		evaluated, checks := st.Rows, st.Boxes
		got := acc.Append(nil)
		if len(got) != 1 || got[0].Row != c.wantRow || evaluated != c.evaluated || checks != 3 {
			t.Fatalf("row 0 at %v: kept %v, %d rows and %d boxes evaluated; want row %d, %d rows, 3 boxes",
				c.at, got, evaluated, checks, c.wantRow, c.evaluated)
		}
		leavesCase(t, "boundary", &tree, data, 1, []float64{0}, 1)
	}
}

// On clustered rows the tree must actually prune: a query drawn from one of
// eight well-separated clusters of 500 rows evaluates under 200 rows on
// average (165 when written). A one-axis coordinate sweep over the same
// rows and queries evaluated 281.
func TestTopKLeavesPrunesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const dim, n, k, trials = 4, 4000, 10, 50
	data := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		centre := float64(r%8) * 40
		for j := 0; j < dim; j++ {
			data[r*dim+j] = centre + rng.NormFloat64()
		}
	}
	var tree BoxTree
	tree.Build(data, dim)
	checkTree(t, "clusters", &tree, data, dim)
	var total int
	for trial := 0; trial < trials; trial++ {
		q := data[rng.Intn(n)*dim:][:dim]
		e, _ := leavesCase(t, "clusters", &tree, data, dim, q, k)
		total += e
	}
	if total >= trials*200 {
		t.Fatalf("the tree evaluated %d of %d row visits on a clustered block", total, trials*n)
	}
}

// filterCase walks tree, built from data, admitting the rows admit names,
// plain and — when the block quantizes — through the q8 filter, and fails
// unless each walk keeps exactly what TopKRows over the admitted rows
// keeps, offers no row to the filter twice, evaluates just the rows the
// filter returned, and the q8 walk evaluates as many rows as the plain one.
func filterCase(t *testing.T, what string, tree *BoxTree, data []float64, dim int, q []float64, k int, admit func(r int32) bool) {
	t.Helper()
	var rows []int32
	for r := range int32(len(data) / dim) {
		if admit(r) {
			rows = append(rows, r)
		}
	}
	ref := NewTopKAcc(k)
	TopKRows(data, dim, q, rows, ref)
	want := ref.Append(nil)
	srcs := []*Compact{nil}
	if codes, par, ok := points.QuantizeQ8(data, dim); ok {
		if bnd := Q8Bounds(dim, par.ErrBound()); bnd.Valid() {
			c := new(Compact)
			c.Reset(codes, par, q, bnd)
			srcs = append(srcs, c)
		}
	}
	plainRows := 0
	for i, c := range srcs {
		offered := map[int32]bool{}
		var kept []int32
		returned := 0
		keep := func(leaf []int32) []int32 {
			kept = kept[:0]
			for _, r := range leaf {
				if offered[r] {
					t.Fatalf("%s q %v: row %d offered to the filter twice", what, q, r)
				}
				offered[r] = true
				if admit(r) {
					kept = append(kept, r)
				}
			}
			returned += len(kept)
			return kept
		}
		acc := NewTopKAcc(k)
		st := TopKLeaves(tree, data, q, c, keep, acc)
		if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s dim %d k %d q %v source %d: filtered walk keeps %v, TopKRows over %d admitted rows %v", what, dim, k, q, i, got, len(rows), want)
		}
		switch {
		case st.Rows != returned || st.Tested != len(offered):
			t.Fatalf("%s q %v source %d: %+v, filter returned %d of %d rows offered", what, q, i, st, returned, len(offered))
		case st.Exact > st.Rows || c == nil && st.Exact != st.Rows:
			t.Fatalf("%s q %v source %d: %d exact distances for %d rows", what, q, i, st.Exact, st.Rows)
		case i == 0:
			plainRows = st.Rows
		case st.Rows != plainRows:
			t.Fatalf("%s q %v: the q8 walk evaluated %d rows, the plain one %d", what, q, st.Rows, plainRows)
		}
	}
}

// withinCase fails t unless Within, with the rows admit approves as its
// filter and with none, lists exactly the rows a flat points.SqDist(q, row)
// < r2 loop over those rows lists, each once, and offers the filter only
// rows within r2, each once. The radii are some rows' own d² — a row on the
// boundary, which the strict test leaves out — the next float above each,
// which takes it in, and 0, +Inf and NaN.
func withinCase(t *testing.T, what string, tree *BoxTree, data []float64, dim int, q []float64, admit func(r int32) bool) {
	t.Helper()
	n := len(data) / dim
	r2s := []float64{0, math.Inf(1), math.NaN()}
	for _, r := range []int{0, n / 2, n - 1} {
		if r >= 0 && r < n {
			d2 := points.SqDist(q, data[r*dim:][:dim])
			r2s = append(r2s, d2, math.Nextafter(d2, math.Inf(1)))
		}
	}
	for _, r2 := range r2s {
		for _, filtered := range []bool{false, true} {
			var want []int32
			for r := range int32(n) {
				if (!filtered || admit(r)) && points.SqDist(q, data[int(r)*dim:][:dim]) < r2 {
					want = append(want, r)
				}
			}
			var keep LeafFilter
			offered := map[int32]bool{}
			if filtered {
				var kept []int32
				keep = func(rows []int32) []int32 {
					kept = kept[:0]
					for _, r := range rows {
						if offered[r] || !(points.SqDist(q, data[int(r)*dim:][:dim]) < r2) {
							t.Fatalf("%s q %v r2 %v: row %d offered twice or from beyond r2", what, q, r2, r)
						}
						offered[r] = true
						if admit(r) {
							kept = append(kept, r)
						}
					}
					return kept
				}
			}
			got := Within(tree, data, q, r2, keep, []int32{-1})
			if got[0] != -1 {
				t.Fatalf("%s: Within overwrote dst", what)
			}
			got = got[1:]
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s dim %d q %v r2 %v filtered=%v: Within lists %v, the flat loop %v", what, dim, q, r2, filtered, got, want)
			}
		}
	}
}

// TestTopKLeavesFilterMatchesRows: a walk that admits only some rows keeps
// what TopKRows over exactly those rows keeps, with and without the q8
// filter, on tie-, duplicate- and NaN/±Inf-heavy blocks, for queries inside,
// beside and far from them and with a hostile coordinate, under random
// filters of every density.
func TestTopKLeavesFilterMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	var tree BoxTree
	for _, dim := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, leafRows + 1, 300, 1500} {
			dups := make([]float64, n*dim) // five distinct points
			for i := range dups {
				dups[i] = float64((i/dim%5)*3 + i%dim)
			}
			ties := latticeRows(rng, n, dim)
			for i, v := range ties { // integers in [-3, 3] besides the hostile rows
				if math.Abs(v) < 1e100 {
					ties[i] = float64(int(v) % 4)
				}
			}
			blocks := map[string][]float64{"random": randBlock(rng, n, dim, 10), "ties": ties, "duplicates": dups, "hostile": hostileRows(rng, n, dim)}
			for what, data := range blocks {
				tree.Build(data, dim)
				for _, density := range []float64{0, 0.1, 0.5, 1} {
					set := make([]bool, n)
					for r := range set {
						set[r] = rng.Float64() < density
					}
					admit := func(r int32) bool { return set[r] }
					near := make([]float64, dim)
					for j := range near {
						near[j] = float64(rng.Intn(5))
					}
					far := make([]float64, dim)
					for j := range far {
						far[j] = 1e3
					}
					hostile := append([]float64(nil), near...)
					hostile[rng.Intn(dim)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200}[rng.Intn(5)]
					for _, q := range [][]float64{near, randQuery(rng, dim), far, hostile} {
						for _, k := range []int{1, 3} {
							filterCase(t, what, &tree, data, dim, q, k, admit)
						}
						withinCase(t, what, &tree, data, dim, q, admit)
					}
				}
			}
		}
	}
}

// FuzzTopKLeavesFilter decodes bytes into (dim, k, filter, query, rows) and
// runs filterCase's differential: the walk that admits the rows whose
// filter bit is set keeps what TopKRows over them keeps, plain and through
// the q8 filter, offers no row twice, and never panics; and withinCase's:
// Within through the same filter lists what a flat loop lists, at radii on
// and just past rows' distances.
func FuzzTopKLeavesFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff, 1, 2, 3})
	f.Add([]byte{1, 2, 0x55, 0, 0, 4, 4, 4, 252, 4, 8, 255, 0, 254, 1, 4, 4, 4, 4})
	f.Add([]byte{2, 0, 0x0f, 250, 253, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 251, 0, 249})
	long := make([]byte, 3+3*(3*nnTile+2))
	for i := range long {
		long[i] = byte(i*37) % 40
	}
	f.Add(long)
	// Duplicate rows, ties and non-finite rows around a query at (1, 1).
	f.Add([]byte{1, 0, 0x5a, 4, 4, 4, 4, 4, 4, 0, 8, 8, 0, 0xff, 4, 4, 0xfe, 4, 4, 8, 4, 0, 4, 0xfc, 0xfd})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		dim, k, bits := 1+int(in[0]%8), 1+int(in[1]%4), in[2]
		vals := make([]float64, 0, len(in)-3)
		for _, b := range in[3:] {
			vals = append(vals, fuzzValue(b))
		}
		if len(vals) < dim {
			return
		}
		q, data := vals[:dim], vals[dim:]
		data = data[:len(data)/dim*dim]
		var tree BoxTree
		tree.Build(data, dim)
		admit := func(r int32) bool { return bits>>(r%8)&1 != 0 }
		filterCase(t, "fuzz", &tree, data, dim, q, k, admit)
		withinCase(t, "fuzz", &tree, data, dim, q, admit)
	})
}

// selectKey must leave the rank-m key at m, smaller keys before it and
// larger after, on the orders a median-of-three pivot is known to meet.
func TestSelectKey(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 100, 1001} {
		for _, o := range []struct {
			what string
			c    func(i int) float64
		}{
			{"ascending", func(i int) float64 { return float64(i) }},
			{"descending", func(i int) float64 { return float64(-i) }},
			{"equal", func(int) float64 { return 3 }}, // the row index decides
			{"organ pipe", func(i int) float64 { return float64(min(i, n-i)) }},
			{"random", func(int) float64 { return float64(rng.Intn(7)) }},
			{"alternating", func(i int) float64 { return float64(i % 2) }},
		} {
			what, c := o.what, o.c
			for _, m := range []int{0, n / 2, n - 1} {
				keys := make([]sortKey, n)
				for i := range keys {
					keys[i] = sortKey{c: c(i), r: int32(i)}
				}
				sorted := append([]sortKey(nil), keys...)
				slices.SortFunc(sorted, func(a, b sortKey) int {
					if a.less(b) {
						return -1
					}
					return 1
				})
				selectKey(keys, m)
				if keys[m] != sorted[m] {
					t.Fatalf("%s n %d m %d: keys[m] = %v, rank-m key %v", what, n, m, keys[m], sorted[m])
				}
				for i, k := range keys {
					if i < m && !k.less(keys[m]) || i > m && !keys[m].less(k) {
						t.Fatalf("%s n %d m %d: key %v at %d is on the wrong side of %v", what, n, m, k, i, keys[m])
					}
				}
			}
		}
	}
}

// A rebuild must not depend on what the tree held before.
func TestBoxTreeRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	small, large := randBlock(rng, 40, 3, 5), latticeRows(rng, 900, 3)
	var fresh, reused BoxTree
	fresh.Build(small, 3)
	reused.Build(large, 3)
	reused.Build(small, 3)
	if !reflect.DeepEqual(fresh.rows, reused.rows) || !reflect.DeepEqual(fresh.nodes, reused.nodes) ||
		!reflect.DeepEqual(fresh.box, reused.box) {
		t.Fatal("a rebuilt tree differs from a fresh one")
	}
	reused.Build(nil, 3)
	checkTree(t, "empty", &reused, nil, 3)
	if st := TopKLeaves(&reused, nil, []float64{0, 0, 0}, nil, nil, NewTopKAcc(2)); st != (LeafStats{}) {
		t.Fatalf("empty tree walked: %+v", st)
	}
}

// TestBoxTreeWorkersAgree: a tree built on several goroutines is the tree
// one goroutine builds, on blocks whose row counts no worker count divides.
func TestBoxTreeWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for _, n := range []int{0, 1, leafRows + 1, 4*leafRows + 3, 3001} {
		for what, data := range map[string][]float64{"random": randBlock(rng, n, 3, 10), "lattice": latticeRows(rng, n, 3)} {
			var want BoxTree
			want.Build(data, 3)
			for _, workers := range []int{2, 3, 8} {
				var got BoxTree
				got.BuildWorkers(data, 3, workers)
				checkTree(t, what, &got, data, 3)
				if !reflect.DeepEqual(got.rows, want.rows) || !reflect.DeepEqual(got.nodes, want.nodes) || !reflect.DeepEqual(got.box, want.box) {
					t.Fatalf("%s n %d: %d workers built another tree than one", what, n, workers)
				}
			}
		}
	}
}

// fuzzValue maps one byte to a coordinate: mostly quarter-integers in
// [-16, 16), so ties in coordinates and in distance are common, with the
// values a bound could mishandle at the top codes.
func fuzzValue(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return 1e200
	case 0xfb:
		return -1e200
	case 0xfa:
		return math.Copysign(0, -1)
	case 0xf9:
		return 1e-200
	}
	return float64(int8(b)) / 4
}

// FuzzTopKLeaves decodes bytes into (dim, k, query, rows) and runs the
// differential of leavesCase on a checked tree: the box-tree scan equals
// the flat scan, evaluates no row twice, and never panics.
func FuzzTopKLeaves(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{1, 2, 0, 0, 4, 4, 4, 252, 4, 8, 255, 0, 254, 1, 4, 4, 4, 4})
	f.Add([]byte{2, 0, 250, 253, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 251, 0, 249})
	long := make([]byte, 2+3*(3*nnTile+2))
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		dim, k := 1+int(in[0]%8), 1+int(in[1]%12)
		vals := make([]float64, 0, len(in)-2)
		for _, b := range in[2:] {
			vals = append(vals, fuzzValue(b))
		}
		if len(vals) < dim {
			return
		}
		q, data := vals[:dim], vals[dim:]
		data = data[:len(data)/dim*dim]
		var tree BoxTree
		tree.Build(data, dim)
		checkTree(t, "fuzz", &tree, data, dim)
		leavesCase(t, "fuzz", &tree, data, dim, q, k)
	})
}
