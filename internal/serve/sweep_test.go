package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/points"
)

// Tests of the query path's tree walk over the bucket union. The contract:
// whatever the precision and the mode, the walked answer is the one the
// plain path gives — gather the (masked) bucket union, scan all of it — bit
// for bit, from at most as many distance evaluations, and a certified answer
// is the exact full scan's.

// sweepModel wraps data in a valid model bucketed under m layouts of pi
// functions of width w; labels, densities and borders vary by row so that
// Cluster and Halo tell rows apart. With rowIDs it is a fleet sub-model.
func sweepModel(data []float64, dim, m, pi int, w float64, rowIDs bool) *model.Model {
	n := len(data) / dim
	mdl := &model.Model{
		Name: "sweep-test", Dim: dim, Dc: 1,
		LSH:    model.Params{Seed: 9, M: m, Pi: pi, W: w},
		Data:   data,
		Rho:    make([]float64, n),
		Labels: make([]int32, n),
		Peaks:  []int32{0, int32(n - 1)},
		Border: []float64{3, 4},
	}
	for i := 0; i < n; i++ {
		mdl.Rho[i] = float64(i % 7)
		mdl.Labels[i] = int32(i % 2)
		if rowIDs {
			mdl.RowIDs = append(mdl.RowIDs, int32(2*i+5))
		}
	}
	return mdl
}

// sameAssignment compares two answers bit for bit (NaN equals NaN).
func sameAssignment(a, b Assignment) bool {
	bits := math.Float64bits
	return a.Cluster == b.Cluster && a.Halo == b.Halo && a.Nearest == b.Nearest && a.Exact == b.Exact && a.Certified == b.Certified &&
		bits(a.Dist) == bits(b.Dist) && bits(a.Dist2) == bits(b.Dist2) && bits(a.PeakDist) == bits(b.PeakDist)
}

// queryBuckets returns q's bucket ID under each layout, -1 where the index
// holds no such bucket, q's guarantee radius and its certifying layout.
func queryBuckets(e *Engine, q points.Vector) (qids []int32, g float64, first int) {
	var kb lsh.KeyBuf
	e.layouts.Hash(&kb, q)
	qids = make([]int32, e.Layouts())
	for j := range qids {
		id, ok := e.ix.Lookup(kb.Key(j))
		if !ok {
			id = -1
		}
		qids[j] = id
	}
	g, first = e.layouts.GuaranteeRadius(&kb)
	return qids, g, first
}

// keyRows lists, in row order, the rows whose bucket under some layout is
// one of ids, read from ix.RowKeys row by row: a bucket's rows when ids
// holds its ID, q's bucket union when ids is queryBuckets(e, q).
func keyRows(e *Engine, ids ...int32) []int32 {
	nl := e.Layouts()
	var rows []int32
	for r := 0; r < e.Model().N(); r++ {
		for _, id := range e.ix.RowKeys[r*nl:][:nl] {
			if slices.Contains(ids, id) {
				rows = append(rows, int32(r))
				break
			}
		}
	}
	return rows
}

// maskedUnion lists, in row order, the rows a masked scan of q may evaluate:
// each row whose first layout matching q, in the cyclic order starting at
// q's certifying layout, is in mask.
func maskedUnion(e *Engine, q points.Vector, mask uint64) []int32 {
	n, nl := e.Model().N(), e.Layouts()
	qids, _, j0 := queryBuckets(e, q)
	var rows []int32
	for r := 0; r < n; r++ {
		for dj := 0; dj < nl; dj++ {
			if j := (j0 + dj) % nl; e.ix.RowKeys[r*nl+j] == qids[j] {
				if mask&(1<<uint(j)) != 0 {
					rows = append(rows, int32(r))
				}
				break
			}
		}
	}
	return rows
}

// within keeps the rows whose squared distance to q ties or beats bound.
func within(mdl *model.Model, q points.Vector, rows []int32, bound float64) []int32 {
	var kept []int32
	for _, r := range rows {
		if points.SqDist(q, mdl.Row(int(r))) <= bound {
			kept = append(kept, r)
		}
	}
	return kept
}

// checkSweep answers q on e — through mask and capped at bound when masked
// (bound is +Inf otherwise) — and fails unless the answer, the error and the
// counters are what gathering the union, keeping the rows within the bound
// and scanning all of them with the exact kernel would have produced, and
// the query certifies exactly when the nearest such row of its certifying
// bucket lies strictly inside its guarantee radius.
func checkSweep(t *testing.T, what string, e *Engine, q points.Vector, mask uint64, masked bool, bound float64) (scanned, union int) {
	t.Helper()
	mdl := e.Model()
	dim, n := mdl.Dim, mdl.N()

	// The reference union, built from the index the slow way.
	qids, g, first := queryBuckets(e, q)
	rows := keyRows(e, qids...)
	if masked {
		rows = maskedUnion(e, q, mask)
	}
	eligible := 0 // the union's rows in the tree: every coordinate finite
	for _, r := range rows {
		ok := true
		for _, c := range mdl.Row(int(r)) {
			ok = ok && !math.IsNaN(c) && !math.IsInf(c, 0)
		}
		if ok {
			eligible++
		}
	}
	rows = within(mdl, q, rows, bound)

	var want Assignment
	var wantErr error
	exact := kernels.NewTopKAcc(1)
	kernels.TopKRange(mdl.Data, dim, q, 0, n, exact)
	exactBest, exactBest2 := exact.Nearest()
	switch best, best2 := kernels.NNRows(mdl.Data, dim, q, rows); {
	case best >= 0:
		want = e.finalize(q, best, best2, false)
	case masked:
		wantErr = ErrNoCandidates
	case exactBest >= 0:
		want = e.finalize(q, exactBest, exactBest2, true)
	default:
		wantErr = ErrNoFinite
	}

	// The certificate: the certifying bucket's nearest row within the bound.
	wantCert := false
	if id := qids[first]; id >= 0 && (!masked || mask&(1<<uint(first)) != 0) {
		b, b2 := kernels.NNRows(mdl.Data, dim, q, within(mdl, q, keyRows(e, id), bound))
		wantCert = b >= 0 && math.Sqrt(b2) < g
	}
	want.Certified = wantCert

	opts := BatchOpts{}
	if masked {
		opts.Masks = []uint64{mask}
		if !math.IsInf(bound, 1) {
			opts.Bounds = []float64{bound}
		}
	}
	out, errs, st := e.AssignBatchOpts([]points.Vector{q}, opts)
	if errs[0] != wantErr || (wantErr == nil && !sameAssignment(out[0], want)) {
		t.Fatalf("%s: q=%v mask=%b bound=%v: swept %+v (err %v), gather + scan %+v (err %v)", what, q, mask, bound, out[0], errs[0], want, wantErr)
	}
	swept := st.Scanned - st.ExactQueries*int64(n)
	if swept < 0 || swept > int64(eligible) {
		t.Fatalf("%s: q=%v mask=%b: %d rows swept, the union holds %d (%d finite)", what, q, mask, swept, len(rows), eligible)
	}
	if (st.ExactQueries == 1) != (wantErr == nil && want.Exact || wantErr == ErrNoFinite) {
		t.Fatalf("%s: q=%v: %d exact scans, want answer %+v (err %v)", what, q, st.ExactQueries, want, wantErr)
	}
	if st.Certified != 0 {
		if st.Certified != 1 || wantErr != nil || want.Exact {
			t.Fatalf("%s: q=%v masked=%v: certified %d with answer %+v (err %v)", what, q, masked, st.Certified, want, wantErr)
		}
		if int(want.Nearest) != int(mdl.GlobalID(exactBest)) || want.Dist2 != exactBest2 {
			t.Fatalf("%s: q=%v: certified answer row %d at %v, exact scan row %d at %v", what, q, want.Nearest, want.Dist2, mdl.GlobalID(exactBest), exactBest2)
		}
	} else if wantCert {
		t.Fatalf("%s: q=%v mask=%b bound=%v: the certifying bucket proves %+v, but the sweep did not certify", what, q, mask, bound, want)
	}
	return int(swept), len(rows)
}

// sweepBounds returns the caps a masked query is checked under: none, the
// best squared distance of its masked union, one ULP below it, and 0 —
// which only a row at the query's own position meets.
func sweepBounds(e *Engine, q points.Vector, mask uint64) []float64 {
	mdl := e.Model()
	bounds := []float64{math.Inf(1), 0}
	if _, b2 := kernels.NNRows(mdl.Data, mdl.Dim, q, maskedUnion(e, q, mask)); b2 < math.Inf(1) {
		bounds = append(bounds, b2)
		if b2 > 0 {
			bounds = append(bounds, math.Nextafter(b2, 0))
		}
	}
	return bounds
}

// sweepBlocks returns the test geometries for n rows of dimension dim.
func sweepBlocks(rng *rand.Rand, n, dim int) map[string][]float64 {
	blobs := make([]float64, n*dim)
	lattice := make([]float64, n*dim)
	dups := make([]float64, n*dim)
	hostile := make([]float64, n*dim)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -1e300, 1e-300}
	for r := 0; r < n; r++ {
		for t := 0; t < dim; t++ {
			i := r*dim + t
			blobs[i] = float64(r%3)*30 + rng.NormFloat64()*3
			lattice[i] = float64(rng.Intn(4)) // mass distance ties
			dups[i] = float64((r%5)*7 + t)    // five distinct points
			hostile[i] = float64(rng.Intn(3))
			if rng.Intn(6) == 0 {
				hostile[i] = bad[rng.Intn(len(bad))]
			}
		}
		if r%4 != 0 {
			hostile[r*dim] = 1 // axis-equal blocks among the well-behaved rows
		}
	}
	return map[string][]float64{"blobs": blobs, "lattice": lattice, "duplicates": dups, "hostile": hostile}
}

// sweepQueries draws queries around block: stored rows themselves, jittered
// rows, far-away points, and points with a hostile coordinate.
func sweepQueries(rng *rand.Rand, block []float64, dim, count int) []points.Vector {
	n := len(block) / dim
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200, math.Copysign(0, -1)}
	var qs []points.Vector
	for i := 0; i < count; i++ {
		q := append(points.Vector(nil), block[rng.Intn(n)*dim:][:dim]...)
		switch i % 5 {
		case 1, 2:
			for t := range q {
				q[t] += rng.NormFloat64() * float64(i%3)
			}
		case 3:
			for t := range q {
				q[t] = rng.NormFloat64() * 200
			}
		case 4:
			q[rng.Intn(dim)] = bad[rng.Intn(len(bad))]
		}
		qs = append(qs, q)
	}
	return qs
}

func TestSweepAssignMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for dim := 1; dim <= 9; dim++ {
		for _, n := range []int{1, 7, 150, 700} {
			for what, block := range sweepBlocks(rng, n, dim) {
				m, pi := 1+rng.Intn(10), 1+rng.Intn(3)
				w := []float64{0.5, 4, 25, 400}[rng.Intn(4)]
				for _, prec := range []Precision{PrecF64, PrecQ8} {
					for _, fleet := range []bool{false, true} {
						e, err := NewEngine(sweepModel(block, dim, m, pi, w, fleet), prec)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s dim %d n %d M %d pi %d w %v %s(%s) fleet=%v", what, dim, n, m, pi, w, prec, e.Precision(), fleet)
						for _, q := range sweepQueries(rng, block, dim, 25) {
							checkSweep(t, name, e, q, 0, false, math.Inf(1))
							if !fleet {
								continue
							}
							for _, mask := range []uint64{rng.Uint64(), ^uint64(0)} {
								for _, bound := range sweepBounds(e, q, mask) {
									checkSweep(t, name, e, q, mask, true, bound)
								}
							}
						}
					}
				}
			}
		}
	}
}

// admitted runs the walk's two filters over every stored row, unpruned, as
// sweep runs them — the certifying bucket's first when this engine owns it,
// then the union's — under the mask ^others, and returns the rows they let
// through, sorted, failing if a row comes through twice.
func admitted(t *testing.T, e *Engine, q points.Vector, others uint64) []int32 {
	t.Helper()
	all := make([]int32, e.Model().N())
	for r := range all {
		all[r] = int32(r)
	}
	s := e.getScratch()
	defer putScratch(s)
	var rows []int32
	if _, cert := e.probe(q, others, s); cert {
		rows = append(rows, s.f.cert(all)...)
		s.f.probe[0].own = false
	}
	rows = append(rows, s.f.union(all)...)
	slices.Sort(rows)
	for i := 1; i < len(rows); i++ {
		if rows[i] == rows[i-1] {
			t.Fatalf("q=%v others=%b: row %d admitted twice", q, others, rows[i])
		}
	}
	return rows
}

// TestStripFilterRule holds the walk's leaf filters to their rule row for
// row, with no pruning in the way: under a mask they admit exactly the rows
// whose first layout matching q, cyclically from the certifying layout, is
// in the mask (maskedUnion), each once; at the full mask, exactly the
// bucket union (keyRows); and a mask and its complement split that union
// between them, no row on both sides.
func TestStripFilterRule(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for dim := 1; dim <= 4; dim++ {
		for what, block := range sweepBlocks(rng, 300, dim) {
			m, pi := 2+rng.Intn(12), 1+rng.Intn(3)
			w := []float64{0.5, 4, 25}[rng.Intn(3)]
			e, err := NewEngine(sweepModel(block, dim, m, pi, w, true), PrecF64)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s dim %d M %d pi %d w %v", what, dim, m, pi, w)
			for _, q := range sweepQueries(rng, block, dim, 30) {
				qids, _, _ := queryBuckets(e, q)
				union := keyRows(e, qids...)
				if full := admitted(t, e, q, 0); !slices.Equal(full, union) {
					t.Fatalf("%s: q=%v: full mask admits %v, the union is %v", name, q, full, union)
				}
				for _, mask := range []uint64{rng.Uint64(), 1 << uint(rng.Intn(m)), 0} {
					in, out := admitted(t, e, q, ^mask), admitted(t, e, q, mask)
					if want := maskedUnion(e, q, mask); !slices.Equal(in, want) {
						t.Fatalf("%s: q=%v mask=%b: admits %v, want %v", name, q, mask, in, want)
					}
					both := append(slices.Clone(in), out...)
					slices.Sort(both)
					if !slices.Equal(both, union) {
						t.Fatalf("%s: q=%v mask=%b: mask admits %v and its complement %v, the union is %v", name, q, mask, in, out, union)
					}
				}
			}
		}
	}
}

// TestCandidateRowsIsUnionWithinDc holds the density fold's list to its
// rule: exactly the rows of q's bucket union (keyRows) strictly within d_c
// of q, each once — on full and fleet sub-model
// engines over blobs, a lattice stored twice (mass ties at exactly d_c),
// duplicate-heavy rows and rows with NaN / ±Inf coordinates. The queries
// are stored rows, jittered and hostile ones (sweepQueries), a point far
// off every row, whose list is empty, and a point exactly d_c from a row.
func TestCandidateRowsIsUnionWithinDc(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	const dim = 2
	blocks := sweepBlocks(rng, 400, dim)
	var lattice []float64
	for range 2 {
		for x := range 16 {
			for y := range 12 {
				lattice = append(lattice, float64(x), float64(y))
			}
		}
	}
	for _, c := range []struct {
		what  string
		block []float64
		dc    float64
	}{
		{"blobs", blocks["blobs"], 4},
		{"doubled lattice", lattice, 1},
		{"duplicates", blocks["duplicates"], 10},
		{"hostile", blocks["hostile"], 1.5},
	} {
		what, block := c.what, c.block
		for _, fleet := range []bool{false, true} {
			m, pi := 1+rng.Intn(10), 1+rng.Intn(3)
			w := []float64{0.5, 4, 25}[rng.Intn(3)]
			mdl := sweepModel(block, dim, m, pi, w, fleet)
			mdl.Dc = c.dc
			e, err := NewEngine(mdl, PrecF64)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s M %d pi %d w %v fleet=%v", what, m, pi, w, fleet)
			r0 := mdl.Row(rng.Intn(mdl.N()))
			qs := append(sweepQueries(rng, block, dim, 60),
				points.Vector{1e6, -1e6},
				points.Vector{r0[0] + mdl.Dc, r0[1]})
			nonEmpty := 0
			for i, q := range qs {
				qids, _, _ := queryBuckets(e, q)
				var want []int32
				for _, r := range keyRows(e, qids...) {
					if points.SqDist(q, mdl.Row(int(r))) < mdl.Dc*mdl.Dc {
						want = append(want, r)
					}
				}
				got, pruned := e.CandidateRows(q, nil)
				if !pruned {
					t.Fatalf("%s: an indexed engine reports no index", name)
				}
				sorted := slices.Clone(got)
				slices.Sort(sorted)
				if len(slices.Compact(slices.Clone(sorted))) != len(got) {
					t.Fatalf("%s: q=%v: a row listed twice in %v", name, q, got)
				}
				if !slices.Equal(sorted, want) {
					t.Fatalf("%s: q=%v: lists %v, the union within d_c is %v", name, q, sorted, want)
				}
				if i == len(qs)-2 && len(got) != 0 {
					t.Fatalf("%s: far query lists %v", name, got)
				}
				if len(got) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < len(qs)/4 {
				t.Fatalf("%s: only %d of %d queries list a row", name, nonEmpty, len(qs))
			}
		}
	}
}

// TestSingleNodeManyLayouts: lsh.CheckLayouts allows more layouts than a
// fleet's 64-bit mask holds, and a single node owns every one of them. An
// engine of 70 layouts keeps the row keys its filters read, answers each
// stored row as the exact scan does, and matches the gathered union on
// jittered and hostile queries.
func TestSingleNodeManyLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const n, dim, m = 400, 2, 70
	block := sweepBlocks(rng, n, dim)["blobs"]
	for _, prec := range []Precision{PrecF64, PrecQ8} {
		e, err := NewEngine(sweepModel(block, dim, m, 2, 4, false), prec)
		if err != nil {
			t.Fatal(err)
		}
		if e.Layouts() != m || e.ix.RowKeys == nil {
			t.Fatalf("engine of %d layouts, row keys kept: %v", e.Layouts(), e.ix.RowKeys != nil)
		}
		for r := 0; r < n; r++ {
			q := points.Vector(block[r*dim:][:dim])
			got, _, err := e.Assign(q, false)
			want, _, wantErr := e.Assign(q, true)
			if err != nil || wantErr != nil || got.Nearest != want.Nearest || got.Dist2 != want.Dist2 || got.Exact {
				t.Fatalf("%s: row %d: swept %+v (err %v), exact scan %+v (err %v)", prec, r, got, err, want, wantErr)
			}
		}
		for _, q := range sweepQueries(rng, block, dim, 200) {
			checkSweep(t, fmt.Sprintf("M %d %s", m, prec), e, q, 0, false, math.Inf(1))
		}
	}
}

// On well-separated blobs a query's bucket union spans its whole blob but
// its nearest row is close: the walk must evaluate under half the union,
// and most queries must certify from one bucket.
func TestSweepPrunesServing(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n, dim = 6000, 4
	data := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		for j := 0; j < dim; j++ {
			data[r*dim+j] = float64(r%6)*60 + rng.NormFloat64()*2
		}
	}
	for _, prec := range []Precision{PrecF64, PrecQ8} {
		e, err := NewEngine(sweepModel(data, dim, 6, 3, 12, false), prec)
		if err != nil {
			t.Fatal(err)
		}
		var swept, union int
		for i := 0; i < 200; i++ {
			q := append(points.Vector(nil), data[rng.Intn(n)*dim:][:dim]...)
			for j := range q {
				q[j] += rng.NormFloat64() * 0.3
			}
			s, u := checkSweep(t, "separated blobs "+prec.String(), e, q, 0, false, math.Inf(1))
			swept, union = swept+s, union+u
		}
		if 2*swept >= union {
			t.Fatalf("%s: swept %d rows of a %d-row union — no real pruning", prec, swept, union)
		}
		t.Logf("%s: swept %d of %d union rows (%.1f%%)", prec, swept, union, 100*float64(swept)/float64(union))
	}
}

// fuzzCoord maps one byte to a coordinate: mostly quarter-integers, so
// ties on the axis and in distance are common, with the values a bound
// could mishandle at the top codes.
func fuzzCoord(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return 1e300
	case 0xfb:
		return -1e300
	case 0xfa:
		return math.Copysign(0, -1)
	case 0xf9:
		return 1e-300
	}
	return float64(int8(b)) / 4
}

// FuzzEngineSweep decodes bytes into a tiny model (dimension, LSH shape,
// precision, rows) and a query, and runs checkSweep's differential against
// the gather path, unmasked and — on a fleet sub-model — under a fuzz-chosen
// mask and each of sweepBounds' caps: same answer, same error, same
// certificate, no more evaluations than the union has eligible rows (so
// none twice), never a panic.
func FuzzEngineSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 2, 1, 1, 7, 4, 4, 4, 4, 252, 4, 8, 255, 0, 254, 1, 4, 4, 4, 4})
	f.Add([]byte{2, 9, 2, 2, 255, 250, 253, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 251, 0, 249})
	long := make([]byte, 5+2*300)
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		dim, m, pi := 1+int(in[0]%4), 1+int(in[1]%10), 1+int(in[2]%3)
		prec, mask := Precision(in[3]%3), uint64(in[4])|uint64(in[4])<<8
		w := []float64{0.5, 3, 40}[int(in[3]/3)%3]
		vals := make([]float64, 0, len(in)-5)
		for _, b := range in[5:] {
			vals = append(vals, fuzzCoord(b))
		}
		if len(vals) < 2*dim {
			return
		}
		q, data := vals[:dim], vals[dim:]
		data = data[:len(data)/dim*dim]
		for _, fleet := range []bool{false, true} {
			e, err := NewEngine(sweepModel(data, dim, m, pi, w, fleet), prec)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, "fuzz", e, q, 0, false, math.Inf(1))
			if fleet {
				for _, bound := range sweepBounds(e, q, mask) {
					checkSweep(t, "fuzz", e, q, mask, true, bound)
				}
			}
		}
	})
}

// harnessGeometry draws the benchmark harness's serving geometry at n rows:
// dimension 8 in 16 blobs of σ 2.5 in a 100-box, the paper's LSH shape (10
// layouts of 3 functions, width solved for d_c 8.4), and nq queries
// jittered off stored rows by d_c/2 per coordinate.
func harnessGeometry(tb testing.TB, n, nq int) (data []float64, w float64, qs []points.Vector) {
	const dim, clusters, dc = 8, 16, 8.4
	rng := rand.New(rand.NewSource(20170419))
	centers := make([]float64, clusters*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	data = make([]float64, n*dim)
	for r := 0; r < n; r++ {
		c := rng.Intn(clusters)
		for j := 0; j < dim; j++ {
			data[r*dim+j] = centers[c*dim+j] + rng.NormFloat64()*2.5
		}
	}
	w, err := lsh.SolveWidth(0.99, dc, 3, 10)
	if err != nil {
		tb.Fatal(err)
	}
	qs = make([]points.Vector, nq)
	for i := range qs {
		q := append(points.Vector(nil), data[rng.Intn(n)*dim:][:dim]...)
		for j := range q {
			q[j] += rng.NormFloat64() * dc / 2
		}
		qs[i] = q
	}
	return data, w, qs
}

// checkPrecisionsAgree answers q on every engine of es — the same model at
// f64 and q8 — under mask and bound when masked, and fails unless the
// compact engine's answer, error, rows evaluated and certificate equal the
// f64 engine's, and it computed no more exact distances than rows.
func checkPrecisionsAgree(t *testing.T, what string, es []*Engine, q points.Vector, mask uint64, masked bool, bound float64) {
	t.Helper()
	opts := BatchOpts{}
	if masked {
		opts.Masks = []uint64{mask}
		if !math.IsInf(bound, 1) {
			opts.Bounds = []float64{bound}
		}
	}
	wantOut, wantErrs, wantSt := es[0].AssignBatchOpts([]points.Vector{q}, opts)
	for _, e := range es[1:] {
		out, errs, st := e.AssignBatchOpts([]points.Vector{q}, opts)
		if errs[0] != wantErrs[0] || !sameAssignment(out[0], wantOut[0]) {
			t.Fatalf("%s %s: q=%v mask=%b bound=%v: %+v (err %v), f64 %+v (err %v)", what, e.Precision(), q, mask, bound, out[0], errs[0], wantOut[0], wantErrs[0])
		}
		if st.Scanned != wantSt.Scanned || st.Certified != wantSt.Certified {
			t.Fatalf("%s %s: q=%v mask=%b bound=%v: scanned %d certified %d, f64 scanned %d certified %d", what, e.Precision(), q, mask, bound, st.Scanned, st.Certified, wantSt.Scanned, wantSt.Certified)
		}
		if swept := st.Scanned - st.ExactQueries*int64(e.Model().N()); st.Rerank > swept {
			t.Fatalf("%s %s: q=%v: %d exact distances for %d swept rows", what, e.Precision(), q, st.Rerank, swept)
		}
	}
}

// TestCompactSweepMatchesF64 pins what the compact filter promises: in front
// of the exact sink it changes nothing the sink sees, so at q8 every query
// gets the f64 engine's answer, from the same rows evaluated, with the
// same certificate — unmasked, and masked under each of sweepBounds' caps —
// on the harness's serving geometry and on tie, duplicate-point and
// non-finite data.
func TestCompactSweepMatchesF64(t *testing.T) {
	engines := func(mdl *model.Model) []*Engine {
		var es []*Engine
		for _, prec := range []Precision{PrecF64, PrecQ8} {
			e, err := NewEngine(mdl, prec)
			if err != nil {
				t.Fatal(err)
			}
			es = append(es, e)
		}
		return es
	}
	check := func(what string, mdl *model.Model, qs []points.Vector, masks []uint64) {
		es := engines(mdl)
		for _, q := range qs {
			checkPrecisionsAgree(t, what, es, q, 0, false, math.Inf(1))
			if !es[0].FleetIndexed() {
				continue
			}
			for _, mask := range masks {
				for _, bound := range sweepBounds(es[0], q, mask) {
					checkPrecisionsAgree(t, what, es, q, mask, true, bound)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(73))

	data, w, qs := harnessGeometry(t, 20_000, 300)
	for _, fleet := range []bool{false, true} {
		mdl := sweepModel(data, 8, 10, 3, w, fleet)
		if es := engines(mdl); es[1].Precision() != PrecQ8 {
			t.Fatalf("harness geometry served at %s", es[1].Precision())
		}
		check(fmt.Sprintf("harness fleet=%v", fleet), mdl, qs, []uint64{0x3FF, 0x155, rng.Uint64()})
	}

	for dim := 1; dim <= 5; dim++ {
		for what, block := range sweepBlocks(rng, 400, dim) {
			if what == "blobs" {
				continue
			}
			m, pi := 1+rng.Intn(10), 1+rng.Intn(3)
			w := []float64{0.5, 4, 25}[rng.Intn(3)]
			for _, fleet := range []bool{false, true} {
				check(fmt.Sprintf("%s dim %d M %d pi %d w %v fleet=%v", what, dim, m, pi, w, fleet),
					sweepModel(block, dim, m, pi, w, fleet), sweepQueries(rng, block, dim, 40), []uint64{rng.Uint64(), ^uint64(0)})
			}
		}
	}
}

// BenchmarkEngineAssign times one pruned query end to end — hash, tree
// walks, bucket filter, compact filter, exact distances — at the benchmark
// harness's serving geometry (harnessGeometry at 200 K rows), at f64 and q8,
// and reports per query the rows evaluated, the box bounds computed, the
// leaf rows the bucket filter tested, the exact distances the compact
// filter let through (0 at f64) and the share of queries that one bucket
// certified. The q8-masked and q8-half cases are a fleet shard's scan — a
// sub-model with row IDs — under a mask of every layout and of the even
// layouts. A full mask has no layout outside it, so q8-masked is q8's scan;
// q8-half leaves every row whose first bucket is odd to another shard.
func BenchmarkEngineAssign(b *testing.B) {
	data, w, qs := harnessGeometry(b, 200_000, 2048)
	for _, c := range []struct {
		name  string
		prec  Precision
		fleet bool
		mask  uint64
	}{{"f64", PrecF64, false, 0}, {"q8", PrecQ8, false, 0}, {"q8-masked", PrecQ8, true, 0x3ff}, {"q8-half", PrecQ8, true, 0x155}} {
		e, err := NewEngine(sweepModel(data, 8, 10, 3, w, c.fleet), c.prec)
		if err != nil {
			b.Fatal(err)
		}
		var opts BatchOpts
		if c.fleet {
			opts.Masks = []uint64{c.mask}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var st ScanStats
			for i := 0; i < b.N; i++ {
				_, _, one := e.AssignBatchOpts(qs[i%len(qs):][:1], opts)
				st.Scanned += one.Scanned
				st.Certified += one.Certified
				st.Rerank += one.Rerank
				st.boxes += one.boxes
				st.tested += one.tested
			}
			b.ReportMetric(float64(st.Scanned)/float64(b.N), "rows/query")
			b.ReportMetric(float64(st.boxes)/float64(b.N), "boxes/query")
			b.ReportMetric(float64(st.tested)/float64(b.N), "tests/query")
			b.ReportMetric(float64(st.Rerank)/float64(b.N), "exact/query")
			b.ReportMetric(float64(st.Certified)/float64(b.N), "certified/query")
		})
	}
}

// TestFleetAssignValidation drives /fleet/assign on a fleet sub-model of 3
// layouts: each shape the endpoint would otherwise ignore in part — a mask
// bit at or above the layout count, masks or bounds beside exact — is
// refused with a 400 that names the field, and the valid shapes answer.
func TestFleetAssignValidation(t *testing.T) {
	srv := New(Config{})
	if err := srv.SetModel(blobModel(300, 2, 3, true)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	const pts = `"points":[[1,1],[40,40]]`
	for _, tc := range []struct {
		name, body string
		want       int
		field      string // the refusal must name it
	}{
		{"masked", `{` + pts + `,"masks":[7,1]}`, http.StatusOK, ""},
		{"masked and bounded", `{` + pts + `,"masks":[1,2],"bounds":[1e300,0]}`, http.StatusOK, ""},
		{"exact", `{` + pts + `,"exact":true}`, http.StatusOK, ""},
		{"mask bit at M", `{` + pts + `,"masks":[1,8]}`, http.StatusBadRequest, "masks[1]"},
		{"mask bit 63", `{` + pts + `,"masks":[9223372036854775808,1]}`, http.StatusBadRequest, "masks[0]"},
		{"masks beside exact", `{` + pts + `,"masks":[1,1],"exact":true}`, http.StatusBadRequest, "masks"},
		{"empty masks beside exact", `{` + pts + `,"masks":[],"exact":true}`, http.StatusBadRequest, "masks"},
		{"bounds beside exact", `{` + pts + `,"bounds":[1,1],"exact":true}`, http.StatusBadRequest, "bounds"},
		{"masks short", `{` + pts + `,"masks":[1]}`, http.StatusBadRequest, "masks"},
		{"bounds short", `{` + pts + `,"masks":[1,1],"bounds":[1]}`, http.StatusBadRequest, "bounds"},
		{"negative bound", `{` + pts + `,"masks":[1,1],"bounds":[1,-1]}`, http.StatusBadRequest, "bound 1"},
	} {
		resp, err := http.Post("http://"+srv.Addr()+"/fleet/assign", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, resp.StatusCode, strings.TrimSpace(string(msg)), tc.want)
			continue
		}
		if tc.field != "" && !strings.Contains(string(msg), tc.field) {
			t.Errorf("%s: refusal %q does not name %s", tc.name, strings.TrimSpace(string(msg)), tc.field)
		}
	}
}
