package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/points"
)

// Tests of the query path's bucket sweep. The contract: whatever the
// precision and the mode, the swept answer is the one the old path gave —
// gather the (masked) bucket union, scan all of it — bit for bit, from at
// most as many distance evaluations, and a certified answer is the exact
// full scan's.

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
	return a.Cluster == b.Cluster && a.Halo == b.Halo && a.Nearest == b.Nearest && a.Exact == b.Exact &&
		bits(a.Dist) == bits(b.Dist) && bits(a.Dist2) == bits(b.Dist2) && bits(a.PeakDist) == bits(b.PeakDist)
}

// checkSweep answers q on e — through mask when masked — and fails unless
// the answer, the error and the counters are what gathering the union and
// scanning all of it with the exact kernel would have produced.
func checkSweep(t *testing.T, what string, e *Engine, q points.Vector, mask uint64, masked bool) (scanned, union int) {
	t.Helper()
	mdl := e.Model()
	dim, n, nl := mdl.Dim, mdl.N(), e.Layouts()

	// The reference union, built from the index the slow way.
	var kb lsh.KeyBuf
	e.layouts.Hash(&kb, q)
	var rows []int32
	if masked {
		qids := make([]int32, nl)
		for j := range qids {
			id, ok := e.ix.Lookup(kb.Key(j))
			if !ok {
				id = -1
			}
			qids[j] = id
		}
		j0 := ScanRotation(kb.Bytes(), nl)
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
	} else {
		rows, _ = e.CandidateRows(q, nil)
		seen := map[int32]bool{}
		for _, r := range rows {
			if seen[r] {
				t.Fatalf("%s: CandidateRows lists row %d twice", what, r)
			}
			seen[r] = true
		}
	}
	eligible := 0
	for _, r := range rows {
		if c := mdl.Data[int(r)*dim+e.axis]; !math.IsNaN(c) && !math.IsInf(c, 0) {
			eligible++
		}
	}

	var want Assignment
	var wantErr error
	exactBest, exactBest2 := kernels.NNRange(mdl.Data, dim, q, 0, n)
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

	opts := BatchOpts{}
	if masked {
		opts.Masks = []uint64{mask}
	}
	out, errs, st := e.AssignBatchOpts([]points.Vector{q}, opts)
	if errs[0] != wantErr || (wantErr == nil && !sameAssignment(out[0], want)) {
		t.Fatalf("%s: q=%v mask=%b: swept %+v (err %v), gather + scan %+v (err %v)", what, q, mask, out[0], errs[0], want, wantErr)
	}
	swept := st.Scanned - st.ExactQueries*int64(n)
	if swept < 0 || swept > int64(eligible) {
		t.Fatalf("%s: q=%v mask=%b: %d rows swept, the union holds %d (%d finite on axis %d)", what, q, mask, swept, len(rows), eligible, e.axis)
	}
	if (st.ExactQueries == 1) != (wantErr == nil && want.Exact || wantErr == ErrNoFinite) {
		t.Fatalf("%s: q=%v: %d exact scans, want answer %+v (err %v)", what, q, st.ExactQueries, want, wantErr)
	}
	if st.Certified != 0 {
		if masked || st.Certified != 1 || wantErr != nil || want.Exact {
			t.Fatalf("%s: q=%v masked=%v: certified %d with answer %+v (err %v)", what, q, masked, st.Certified, want, wantErr)
		}
		if int(want.Nearest) != int(mdl.GlobalID(exactBest)) || want.Dist2 != exactBest2 {
			t.Fatalf("%s: q=%v: certified answer row %d at %v, exact scan row %d at %v", what, q, want.Nearest, want.Dist2, mdl.GlobalID(exactBest), exactBest2)
		}
	}
	return int(swept), len(rows)
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
				for _, prec := range []Precision{PrecF64, PrecF32, PrecQ8} {
					for _, fleet := range []bool{false, true} {
						e, err := NewEngine(sweepModel(block, dim, m, pi, w, fleet), prec)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s dim %d n %d M %d pi %d w %v %s(%s) fleet=%v", what, dim, n, m, pi, w, prec, e.Precision(), fleet)
						for _, q := range sweepQueries(rng, block, dim, 25) {
							checkSweep(t, name, e, q, 0, false)
							if fleet {
								checkSweep(t, name, e, q, rng.Uint64(), true)
								checkSweep(t, name, e, q, ^uint64(0), true)
							}
						}
					}
				}
			}
		}
	}
}

// On well-separated blobs a query's bucket union spans its whole blob but
// its nearest row is close: the sweep must evaluate under half the union,
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
			s, u := checkSweep(t, "separated blobs "+prec.String(), e, q, 0, false)
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
// mask: same answer, same error, no more evaluations than the union has
// eligible rows (so none twice), never a panic.
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
			checkSweep(t, "fuzz", e, q, 0, false)
			if fleet {
				checkSweep(t, "fuzz", e, q, mask, true)
			}
		}
	})
}

// BenchmarkEngineAssign times one pruned query end to end — hash, bucket
// sweeps, re-rank — at the benchmark harness's serving geometry (200 K rows
// of dimension 8 in 16 blobs of σ 2.5 in a 100-box, the paper's LSH shape
// at d_c 8.4, queries jittered off stored rows by d_c/2 per coordinate), at
// f64 and q8, and reports the rows evaluated and the share of queries that
// one bucket certified.
func BenchmarkEngineAssign(b *testing.B) {
	const n, dim, clusters, dc = 200_000, 8, 16, 8.4
	rng := rand.New(rand.NewSource(20170419))
	centers := make([]float64, clusters*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	data := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		c := rng.Intn(clusters)
		for j := 0; j < dim; j++ {
			data[r*dim+j] = centers[c*dim+j] + rng.NormFloat64()*2.5
		}
	}
	w, err := lsh.SolveWidth(0.99, dc, 3, 10)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]points.Vector, 2048)
	for i := range qs {
		q := append(points.Vector(nil), data[rng.Intn(n)*dim:][:dim]...)
		for j := range q {
			q[j] += rng.NormFloat64() * dc / 2
		}
		qs[i] = q
	}
	for _, prec := range []Precision{PrecF64, PrecQ8} {
		e, err := NewEngine(sweepModel(data, dim, 10, 3, w, false), prec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prec.String(), func(b *testing.B) {
			b.ReportAllocs()
			var st ScanStats
			for i := 0; i < b.N; i++ {
				_, _, one := e.AssignBatch(qs[i%len(qs):][:1], false)
				st.Scanned += one.Scanned
				st.Certified += one.Certified
			}
			b.ReportMetric(float64(st.Scanned)/float64(b.N), "rows/query")
			b.ReportMetric(float64(st.Certified)/float64(b.N), "certified/query")
		})
	}
}
