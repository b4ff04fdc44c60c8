package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

// The runs-apart certificate (paironce.go: boxRuns, apart) prunes an owned
// block of the cutoff ρ walk when its two runs lie d_c apart on one axis.
// These tests hold it to "a pruned pair could not have counted or been
// listed": on hand-built runs at the floating-point edges, on whole
// pipelines against a ρ job that prunes nothing, and under fuzzing.

// matrixOf decodes vs, in order, into a pooled matrix.
func matrixOf(t testing.TB, vs []points.Vector) *points.Matrix {
	t.Helper()
	var values [][]byte
	for _, p := range InputPairs(points.FromVectors("rows", vs)) {
		values = append(values, p.Value)
	}
	m := points.GetMatrix()
	if err := points.DecodePointsInto(m, values); err != nil {
		t.Fatal(err)
	}
	return m
}

// runsOf returns the matrix of runs, in order, and the scratch of a layout-1
// reducer over it: the runs are layout 0's buckets, so no two share one and
// the reducer owns every pair across them.
func runsOf(t testing.TB, runs [][]points.Vector) (*points.Matrix, *pairOnce) {
	t.Helper()
	var rows []points.Vector
	var bucket []int32
	for g, run := range runs {
		rows = append(rows, run...)
		for range run {
			bucket = append(bucket, int32(g))
		}
	}
	n := len(rows)
	po := &pairOnce{n: n, sig: make([]int32, 2*n)}
	copy(po.sig, bucket) // layout 1, the reducer's own, is one bucket: all zero
	return matrixOf(t, rows), po
}

// cutoffWalk runs the ρ reducer's walk over blocks of m at cutoff dc2 —
// counts for the reducer's own layout and neighbour lists
// bounded by dc2 — and returns both.
func cutoffWalk(m *points.Matrix, po *pairOnce, blocks []kernels.Block, dc2 float64) ([]int32, [][]kernels.TopKEntry) {
	var near kernels.Near
	k := kernels.Kernel{Dc2: dc2}
	cr := kernels.Credit{Layouts: 2, Own: 1, Sig: po.sig, Near: &near}
	cr.Reset(m.N())
	near.Reset(m.N(), nearK, dc2)
	kernels.Rho(m, blocks, k, &cr)
	lists := make([][]kernels.TopKEntry, m.N())
	for r := range lists {
		lists[r] = slices.Clone(near.List(r))
	}
	return slices.Clone(cr.Counts), lists
}

// requireApartExact compares the walk over the blocks a layout-1 reducer
// owns at reach dc2 with the walk over those it owns at +Inf, and returns
// how many pairs the former pruned.
func requireApartExact(t *testing.T, m *points.Matrix, po *pairOnce, dc2 float64) int64 {
	t.Helper()
	all, noPrune, allSkipped := po.owned(m, 1, math.Inf(1))
	all = slices.Clone(all)
	cut, pruned, skipped := po.owned(m, 1, dc2)
	cut = slices.Clone(cut)
	pairs := func(blocks []kernels.Block) (n int64) {
		for _, b := range blocks {
			n += b.Pairs()
		}
		return n
	}
	if noPrune != 0 || skipped != allSkipped || pairs(cut)+pruned != pairs(all) {
		t.Fatalf("reach %v: %d pairs walked + %d pruned + %d skipped, at +Inf %d walked + %d pruned + %d skipped",
			dc2, pairs(cut), pruned, skipped, pairs(all), noPrune, allSkipped)
	}
	wantCounts, wantLists := cutoffWalk(m, po, all, dc2)
	gotCounts, gotLists := cutoffWalk(m, po, cut, dc2)
	if !slices.Equal(gotCounts, wantCounts) {
		t.Fatalf("reach %v: counts %v after pruning, %v without", dc2, gotCounts, wantCounts)
	}
	for r := range wantLists {
		if !slices.Equal(gotLists[r], wantLists[r]) {
			t.Fatalf("reach %v: row %d lists %v after pruning, %v without", dc2, r, gotLists[r], wantLists[r])
		}
	}
	return pruned
}

// TestRunsApartEdges pins the certificate at its boundary and on hostile
// coordinates: runs whose gap² equals Dc2 exactly are pruned, and their
// pairs at exactly d_c never counted; runs one ULP inside — the gap one ULP
// short, or the reach one ULP past gap² — are walked, and their closest pair
// counts. NaN, ±Inf, −0, near-overflow and underflowing gaps prune exactly
// what cannot count, and a reach of +Inf prunes nothing.
func TestRunsApartEdges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	below := math.Nextafter(1.5, 0)
	for _, c := range []struct {
		name   string
		runs   [][]points.Vector
		dc2    float64
		pruned int64
		closes bool // rows 0 and the first of the last run lie within d_c
	}{
		{"gap² = Dc2", [][]points.Vector{{{0, 0}, {-0.5, 0.25}}, {{1.5, 0}, {1.5, 3}}}, 2.25, 4, false},
		{"gap one ULP short", [][]points.Vector{{{0, 0}, {-0.5, 0.25}}, {{below, 0}, {1.5, 3}}}, 2.25, 0, true},
		{"reach one ULP past gap²", [][]points.Vector{{{0, 0}, {-0.5, 0.25}}, {{1.5, 0}, {1.5, 3}}}, math.Nextafter(2.25, inf), 0, true},
		{"gap on the second axis, below", [][]points.Vector{{{0, 0}}, {{0.3, -1.5}}}, 2.25, 1, false},
		{"three runs", [][]points.Vector{{{0, 0}}, {{1, 0}}, {{2.5, 0}}}, 2.25, 2, false},
		{"NaN in the gap's axis", [][]points.Vector{{{0, 0}, {nan, 0}}, {{5, 0}}}, 2.25, 0, false},
		{"NaN on another axis", [][]points.Vector{{{0, nan}}, {{5, 0}}}, 2.25, 1, false},
		{"+Inf run", [][]points.Vector{{{0, 0}}, {{inf, 0}, {inf, 1}}}, 2.25, 2, false},
		{"Inf − Inf", [][]points.Vector{{{inf, 0}}, {{inf, 0}}}, 2.25, 0, false},
		{"−Inf against +Inf", [][]points.Vector{{{-inf, 0}}, {{inf, 0}}}, 2.25, 1, false},
		{"signed zeros", [][]points.Vector{{{negZero, 0}, {0, negZero}}, {{1.5, negZero}, {1.5, 0}}}, 2.25, 4, false},
		{"overflowing gap", [][]points.Vector{{{-1e308, 0}}, {{1e308, 0}}}, 2.25, 1, false},
		{"overflowing gap²", [][]points.Vector{{{0, 0}}, {{1.5e154, 0}}}, math.MaxFloat64, 1, false},
		{"underflowing gap²", [][]points.Vector{{{0, 0}}, {{1e-200, 0}}}, 0, 1, false},
		{"reach +Inf", [][]points.Vector{{{0, 0}}, {{inf, 0}}}, inf, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, po := runsOf(t, c.runs)
			defer points.PutMatrix(m)
			if got := requireApartExact(t, m, po, c.dc2); got != c.pruned {
				t.Fatalf("pruned %d pairs, want %d", got, c.pruned)
			}
			last := m.N() - len(c.runs[len(c.runs)-1])
			if counts, _ := cutoffWalk(m, po, []kernels.Block{kernels.Cross(0, 1, last, last+1)}, c.dc2); (counts[m.N()] == 1) != c.closes {
				t.Fatalf("rows 0 and %d: own-layout count %d, within d_c %v", last, counts[m.N()], c.closes)
			}
		})
	}
}

const jobLSHRhoReachInf = "test-lsh-ddp-rho-reach-inf"

// reachInfRhoJob is the ρ job at a reach of +Inf: its reducers walk every
// pair they own.
func reachInfRhoJob(conf mapreduce.Conf) *mapreduce.Job {
	job := lshRhoJob(conf, false)
	job.Name = jobLSHRhoReachInf
	return job
}

// stagedLSH is what runStaged returns: the ρ aggregation's densities and
// lists, the δ aggregation's arrays and the ρ job's counters.
type stagedLSH struct {
	rho, delta []float64
	upslope    []int32
	near       [][]points.Neighbor
	counters   map[string]int64
}

// runStaged runs RunLSHDDP's stages job by job on eng (Dc and W pinned),
// with rhoJob as the ρ job.
func runStaged(t *testing.T, eng mapreduce.Engine, ds *points.Dataset, cfg LSHConfig, rhoJob func(mapreduce.Conf) *mapreduce.Job) stagedLSH {
	t.Helper()
	conf := lshConf(ds, cfg)
	var st stagedLSH
	run := func(job *mapreduce.Job, in []mapreduce.Pair) []mapreduce.Pair {
		res, err := eng.Run(context.Background(), job, in)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		if st.counters == nil {
			st.counters = res.Counters.Snapshot()
		}
		return res.Output
	}
	n := ds.N()
	rhoOut := run(LSHRhoAggJob(conf.Clone()), run(rhoJob(conf.Clone()), InputPairs(ds)))
	var err error
	if st.rho, st.near, err = decodeRhoValues(rhoOut, n); err != nil {
		t.Fatal(err)
	}
	var open []bool
	st.delta, st.upslope, open = certify(st.rho, st.near)
	layouts, err := layoutsOf(conf)
	if err != nil {
		t.Fatal(err)
	}
	rowKeys, _, err := planRho(InputPairs(ds), layouts, conf)
	if err != nil {
		t.Fatal(err)
	}
	dOut := run(DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}), run(LSHDeltaJob(conf.Clone()), shipRows(ds, rowKeys, st.rho, open)))
	if err := decodeOpenDeltas(dOut, st.delta, st.upslope, open); err != nil {
		t.Fatal(err)
	}
	return st
}

// requireSameBits fails unless got and want hold the same float64 bit
// patterns (NaN included) and the same upslopes; want is the reference run.
func requireSameBits(t *testing.T, what string, got, want []float64, gotUp, wantUp []int32) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
	if !slices.Equal(gotUp, wantUp) {
		t.Fatalf("%s: upslopes differ from the reference", what)
	}
}

// runsApartCases are pipeline inputs at the certificate's edges: blobs with
// NaN, ±Inf, −0 and near-overflow coordinates mixed in, and two integer
// lattices, one whose step is d_c exactly — runs gap² = Dc2 apart, lattice
// neighbours at exactly d_c — and one whose step is a ULP short of it.
func runsApartCases() []pairOnceCase {
	const dc = 1.5
	rng := points.NewRand(27)
	hostile := make([]points.Vector, 160)
	for i := range hostile {
		hostile[i] = points.Vector{float64(rng.Intn(12)) * 0.75, float64(rng.Intn(12)) * 0.75, rng.Float64() * 9}
	}
	for i, v := range []points.Vector{
		{math.NaN(), 1, 1}, {2, math.NaN(), 2}, {math.Inf(1), 0, 0}, {math.Inf(-1), 3, 3},
		{math.Inf(1), math.Inf(-1), 0}, {math.Copysign(0, -1), math.Copysign(0, -1), 0}, {0, 0, math.Copysign(0, -1)},
		{1e200, 0, 0}, {-1e200, 1, 1}, {1.5e154, 0, 0}, {math.MaxFloat64, -math.MaxFloat64, 0}, {1e-300, 0, 0},
	} {
		hostile[7*i] = v
	}
	lattice := func(step float64) []points.Vector {
		vs := make([]points.Vector, 150)
		for i := range vs {
			vs[i] = points.Vector{float64(rng.Intn(8)) * step, float64(rng.Intn(8)) * step}
		}
		return vs
	}
	var cases []pairOnceCase
	for _, c := range []struct {
		name string
		vs   []points.Vector
	}{
		{"hostile", hostile},
		{"lattice step d_c", lattice(dc)},
		{"lattice step one ULP short of d_c", lattice(math.Nextafter(dc, 0))},
	} {
		cfg := LSHConfig{M: 8, Pi: 1, W: 4}
		cfg.Dc, cfg.Seed = dc, 5
		cases = append(cases, pairOnceCase{name: c.name, ds: points.FromVectors(c.name, c.vs), cfg: cfg})
	}
	return cases
}

// TestRunsApartMatchesReachInf: on every edge case, on the local engine at
// parallelism 1 and 3 and a 3-worker rpcmr cluster, the pipeline's ρ̂,
// neighbour lists, δ̂ and upslope are bit-identical to a run whose ρ job
// prunes nothing, and so are the pipeline's own arrays. The runs prune —
// evaluated + pruned is the unpruned run's evaluated count.
func TestRunsApartMatchesReachInf(t *testing.T) {
	engines := []mapreduce.Engine{&mapreduce.LocalEngine{Parallelism: 1}, &mapreduce.LocalEngine{Parallelism: 3}}
	if !testing.Short() {
		rpcmr.RegisterJobs(JobFactories())
		rpcmr.RegisterJobs(map[string]func(mapreduce.Conf) *mapreduce.Job{jobLSHRhoReachInf: reachInfRhoJob})
		cluster, err := rpcmr.NewMaster("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		for i := 0; i < 3; i++ {
			w, err := rpcmr.StartWorker(cluster.Addr(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
		}
		engines = append(engines, cluster)
	}
	for _, c := range runsApartCases() {
		for ei, eng := range engines {
			// kernel0 names the cutoff kernel, the only one; the level
			// keeps the subtest names stable.
			t.Run(fmt.Sprintf("%s/kernel0/engine%d", c.name, ei), func(t *testing.T) {
				cfg := c.cfg
				cfg.Engine = eng
				want := runStaged(t, eng, c.ds, cfg, reachInfRhoJob)
				got := runStaged(t, eng, c.ds, cfg, LSHRhoJob)
				requireSameBits(t, "rho", got.rho, want.rho, nil, nil)
				for i := range want.near {
					if !slices.Equal(got.near[i], want.near[i]) {
						t.Fatalf("point %d: list %v, at reach +Inf %v", i, got.near[i], want.near[i])
					}
				}
				requireSameBits(t, "delta", got.delta, want.delta, got.upslope, want.upslope)
				res, err := RunLSHDDP(context.Background(), c.ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, "pipeline rho", res.Rho, want.rho, nil, nil)
				requireSameBits(t, "pipeline delta", res.Delta, want.delta, res.Upslope, want.upslope)

				ev, pr := got.counters[mapreduce.CtrDistanceComputations], got.counters[CtrPairsPruned]
				wantEv := want.counters[mapreduce.CtrDistanceComputations]
				if want.counters[CtrPairsPruned] != 0 || ev+pr != wantEv ||
					got.counters[CtrPairsSkipped] != want.counters[CtrPairsSkipped] {
					t.Fatalf("ρ job: evaluated %d pruned %d, at reach +Inf evaluated %d pruned %d",
						ev, pr, wantEv, want.counters[CtrPairsPruned])
				}
				if pr == 0 {
					t.Fatal("ρ job pruned no pair")
				}
			})
		}
	}
}

// fuzzCoord maps a byte to a coordinate: small multiples of a quarter, d_c
// and its neighbours, and the floating-point edges.
func fuzzCoord(b byte) float64 {
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
	case 0xf8:
		return math.MaxFloat64
	case 0xf7:
		return 1.5e154
	case 0xf6:
		return math.Nextafter(1.5, 0)
	case 0xf5:
		return 1.5
	}
	return float64(int8(b)) / 4
}

// fuzzReach maps a byte to a squared reach: a few squares, the boundary
// 2.25 = 1.5² and its ULP neighbours, and the edges.
func fuzzReach(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.MaxFloat64
	case 0xfc:
		return -1
	case 0xfb:
		return math.Nextafter(2.25, 0)
	case 0xfa:
		return math.Nextafter(2.25, math.Inf(1))
	case 0xf9:
		return 2.25
	}
	r := float64(b%64) / 4
	return r * r
}

// FuzzRunsApart decodes bytes into two runs of rows and a squared reach.
// Whenever the certificate calls the runs apart — either way round, the two
// answers agreeing — the cutoff walk at Dc2 = reach over every pair across
// them credits nothing and lists nothing. The same rows, cut into runs of
// the first run's size, also go through the ρ ship plan
// (requirePlanSound).
func FuzzRunsApart(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xf9, 1, 0, 0, 0xf5, 0})
	f.Add([]byte{1, 0xf9, 1, 0, 0, 0xf6, 0})
	f.Add([]byte{0, 4, 2, 0xff, 3, 0x20, 0xfe})
	f.Add([]byte{2, 0xfe, 1, 0xfd, 0xfa, 1, 0xfe, 0xfe, 0xfc, 0xf8, 0xf7, 0xfb})
	// Four one-row runs at 0, 0.25, 31.75 and 0.5: the plan keeps runs 0
	// and 3 and leaves out 1, whose one owned partner is far, and 2.
	f.Add([]byte{0, 0xf9, 0, 0, 1, 0x7f, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		dim, reach2, ng := 1+int(in[0]%3), fuzzReach(in[1]), 1+int(in[2]%4)
		var rows []points.Vector
		for b := in[3:]; len(b) >= dim; b = b[dim:] {
			row := make(points.Vector, dim)
			for x := range row {
				row[x] = fuzzCoord(b[x])
			}
			rows = append(rows, row)
		}
		if len(rows) <= ng {
			return
		}
		requirePlanSound(t, rows, ng, reach2)
		m, po := runsOf(t, [][]points.Vector{rows[:ng], rows[ng:]})
		defer points.PutMatrix(m)
		po.boxRuns(m, []int{0, ng, m.N()})
		g, h := po.box[:2*dim], po.box[2*dim:]
		if apart(g, h, reach2) != apart(h, g, reach2) {
			t.Fatalf("apart depends on the order of the runs: %v, %v at %v", g, h, reach2)
		}
		if !apart(g, h, reach2) {
			return
		}
		counts, lists := cutoffWalk(m, po, []kernels.Block{kernels.Cross(0, ng, ng, m.N())}, reach2)
		for r, c := range counts {
			if c != 0 {
				t.Fatalf("runs %v and %v apart at %v, yet cell %d counts %d", rows[:ng], rows[ng:], reach2, r, c)
			}
		}
		for r, l := range lists {
			if len(l) != 0 {
				t.Fatalf("runs %v and %v apart at %v, yet row %d lists %v", rows[:ng], rows[ng:], reach2, r, l)
			}
		}
	})
}

// requirePlanSound cuts rows into runs of size rows and puts them in one
// bucket of layout 2, run g in bucket g%2 of layout 0 and g/2 of layout 1,
// so that some run pairs share an earlier bucket and the rest are owned. It
// has the ρ ship plan walk that bucket at reach2 and checks that a run the
// plan leaves out has no pair across it that counts or is listed, that the
// reducer's walk over the kept rows credits and lists what its walk over
// all rows does, and that the pairs the plan says it left out close the
// reducer's counts.
func requirePlanSound(t *testing.T, rows []points.Vector, size int, reach2 float64) {
	t.Helper()
	const own, nl = 2, 3
	n := len(rows)
	runs := (n + size - 1) / size
	buckets := 3 + (runs-1)/2
	ix := &lsh.Index{RowKeys: make([]int32, 0, n*nl)}
	all := make([]int32, n)
	for r := range all {
		g := r / size
		all[r] = int32(r)
		ix.RowKeys = append(ix.RowKeys, int32(g%2), int32(2+g/2), int32(buckets-1))
	}
	pts := matrixOf(t, rows)
	defer points.PutMatrix(pts)
	local := make([]int32, buckets)
	for b := range local {
		local[b] = -1
	}
	// load gathers the given rows as the layout-2 reducer orders them.
	load := func(bucket []int32) (*points.Matrix, *pairOnce) {
		po := &pairOnce{}
		ids := po.signIndex(ix, nl, bucket, own, local)
		order := slices.Clone(po.sortRuns(own, own, ids))
		for x, r := range order {
			order[x] = bucket[r]
		}
		m := points.GetMatrix()
		m.Gather(pts, order)
		return m, po
	}
	rp := runPlanner{ix: ix, nl: nl, pts: pts, reach2: reach2, po: &pairOnce{}, m: points.GetMatrix(), local: local}
	defer points.PutMatrix(rp.m)
	sent := make([]bool, n)
	unsentPruned, unsentSkipped := rp.plan(own, all, sent)

	m, po := load(all)
	defer points.PutMatrix(m)
	every, _, _ := po.owned(m, own, math.Inf(1))
	counts, lists := walkByID(m, every, reach2, n)
	for id, ok := range sent {
		if !ok && (counts[id] != 0 || len(lists[id]) != 0) {
			t.Fatalf("reach %v: row %d is left out, yet counts %d and lists %v across its run", reach2, id, counts[id], lists[id])
		}
	}
	blocks, pruned, skipped := po.owned(m, own, reach2)
	counts, lists = walkByID(m, blocks, reach2, n)

	var kept []int32
	for id, ok := range sent {
		if ok {
			kept = append(kept, int32(id))
		}
	}
	var kblocks []kernels.Block
	var kpruned, kskipped int64
	kcounts, klists := make([]int32, n), make([][]kernels.TopKEntry, n)
	if len(kept) > 0 {
		km, kpo := load(kept)
		defer points.PutMatrix(km)
		kblocks, kpruned, kskipped = kpo.owned(km, own, reach2)
		kcounts, klists = walkByID(km, kblocks, reach2, n)
	}
	if !slices.Equal(kcounts, counts) || !reflect.DeepEqual(klists, lists) {
		t.Fatalf("reach %v: the walk over the %d kept rows credits %v, lists %v; over all %d, %v and %v",
			reach2, len(kept), kcounts, klists, n, counts, lists)
	}
	pairs := func(bs []kernels.Block) (p int64) {
		for _, b := range bs {
			p += b.Pairs()
		}
		return p
	}
	if pairs(kblocks) != pairs(blocks) || kpruned+unsentPruned != pruned || kskipped+unsentSkipped != skipped {
		t.Fatalf("reach %v: kept rows walk %d, prune %d, skip %d, the plan left out %d pruned and %d skipped; all rows walk %d, prune %d, skip %d",
			reach2, pairs(kblocks), kpruned, kskipped, unsentPruned, unsentSkipped, pairs(blocks), pruned, skipped)
	}
}

// walkByID runs the cutoff walk at dc2 over blocks of m and returns, indexed
// by point ID below n, each row's count and neighbour list, nil when empty.
func walkByID(m *points.Matrix, blocks []kernels.Block, dc2 float64, n int) ([]int32, [][]kernels.TopKEntry) {
	var near kernels.Near
	cr := kernels.Credit{Layouts: 1, Near: &near}
	cr.Reset(m.N())
	near.Reset(m.N(), nearK, dc2)
	kernels.Rho(m, blocks, kernels.Kernel{Dc2: dc2}, &cr)
	counts, lists := make([]int32, n), make([][]kernels.TopKEntry, n)
	for r := 0; r < m.N(); r++ {
		counts[m.ID(r)] = cr.Counts[r]
		if l := near.List(r); len(l) > 0 {
			lists[m.ID(r)] = slices.Clone(l)
		}
	}
	return counts, lists
}
