package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

// pairOnceCase is one input of the differential suite.
type pairOnceCase struct {
	name string
	ds   *points.Dataset
	cfg  LSHConfig // Dc, W, M, Pi, Seed pinned; Engine unset
	// par is the local engine's parallelism, 1 or 3: its reduce partition
	// count, so a case's outputs and counters are held across partitionings.
	par int
}

// localEngine is the case's local engine.
func (c pairOnceCase) localEngine() mapreduce.Engine {
	return &mapreduce.LocalEngine{Parallelism: c.par}
}

// pairOnceCases draws seeds × dim 1–9 × {blobs, integer lattice, duplicates}
// with M in 1–12 and π in 1–4. The lattice makes exact distance ties (and
// equal densities) the rule; duplicates add zero distances and points whose
// every key agrees.
func pairOnceCases() []pairOnceCase {
	var cases []pairOnceCase
	for seed := int64(1); seed <= 2; seed++ {
		for dim := 1; dim <= 9; dim++ {
			for _, kind := range []string{"blobs", "lattice", "duplicates"} {
				rng := points.NewRand(seed*1000 + int64(dim)*10 + int64(len(kind)))
				cfg := LSHConfig{M: 1 + rng.Intn(12), Pi: 1 + rng.Intn(4)}
				cfg.Seed = seed + int64(dim)
				par := []int{1, 3}[rng.Intn(2)]
				var ds *points.Dataset
				switch kind {
				case "lattice":
					side := 5
					if dim == 1 {
						side = 60
					}
					vs := make([]points.Vector, 140)
					for i := range vs {
						vs[i] = make(points.Vector, dim)
						for j := range vs[i] {
							vs[i][j] = float64(rng.Intn(side))
						}
					}
					ds = points.FromVectors("lattice", vs)
					cfg.Dc, cfg.W = 1.5, 2+3*rng.Float64()
				default:
					ds = dataset.Blobs(kind, 150, dim, 3, 20, 2, seed+int64(dim))
					if kind == "duplicates" {
						for i := range ds.Points {
							if i%3 != 0 {
								ds.Points[i].Pos = ds.Points[i-i%3].Pos.Clone()
							}
						}
					}
					cfg.Dc, cfg.W = 2.5, 6+9*rng.Float64()
				}
				ds.Labels = nil
				cases = append(cases, pairOnceCase{
					name: fmt.Sprintf("%s/dim%d/seed%d/M%d/pi%d", kind, dim, seed, cfg.M, cfg.Pi),
					ds:   ds, cfg: cfg, par: par,
				})
			}
		}
	}
	return cases
}

// coBucketed answers, by brute force, whether two points share a bucket in
// some layout — the pair set every LSH-DDP estimate is a function of.
type coBucketed struct{ keys [][]string }

func newCoBucketed(ds *points.Dataset, cfg LSHConfig) coBucketed {
	cfg = filled(cfg)
	l := lsh.NewLayouts(ds.Dim(), cfg.M, cfg.Pi, cfg.W, cfg.Seed)
	cb := coBucketed{keys: make([][]string, ds.N())}
	for i, p := range ds.Points {
		cb.keys[i] = l.Keys(p.Pos)
	}
	return cb
}

func (cb coBucketed) shared(i, j int) (layouts int) {
	for m, k := range cb.keys[i] {
		if k == cb.keys[j][m] {
			layouts++
		}
	}
	return layouts
}

// requireValidUpslope checks a δ̂/upslope pair against its definition: the
// upslope point is denser, shares a bucket with i, and lies at exactly δ̂ᵢ.
func requireValidUpslope(t *testing.T, ds *points.Dataset, cb coBucketed, rho []float64, i int, delta float64, up int32) {
	t.Helper()
	if up < 0 || int(up) >= ds.N() {
		t.Fatalf("point %d: upslope %d with finite delta %v", i, up, delta)
	}
	if !dp.DenserVals(rho[up], rho[i], up, int32(i)) {
		t.Fatalf("point %d: upslope %d is not denser (%v vs %v)", i, up, rho[up], rho[i])
	}
	if cb.shared(i, int(up)) == 0 {
		t.Fatalf("point %d: upslope %d shares no bucket with it", i, up)
	}
	if d := math.Sqrt(points.SqDist(ds.Points[i].Pos, ds.Points[up].Pos)); d != delta {
		t.Fatalf("point %d: upslope %d is at %v, delta says %v", i, up, d, delta)
	}
}

// requireDeltaFromPairSet checks δ̂ and upslope against a brute-force minimum
// over the distinct co-bucketed pairs, for the ρ̂ the pipeline itself used.
func requireDeltaFromPairSet(t *testing.T, ds *points.Dataset, cb coBucketed, got *Result) {
	t.Helper()
	for i := range ds.Points {
		best := math.Inf(1)
		for j := range ds.Points {
			if j != i && cb.shared(i, j) > 0 && dp.DenserVals(got.Rho[j], got.Rho[i], int32(j), int32(i)) {
				best = min(best, points.SqDist(ds.Points[i].Pos, ds.Points[j].Pos))
			}
		}
		if math.Sqrt(best) != got.Delta[i] {
			t.Fatalf("delta[%d] = %v, brute force over the pair set %v", i, got.Delta[i], math.Sqrt(best))
		}
		if math.IsInf(best, 1) {
			if got.Upslope[i] != -1 {
				t.Fatalf("point %d: local peak everywhere but upslope %d", i, got.Upslope[i])
			}
			continue
		}
		requireValidUpslope(t, ds, cb, got.Rho, i, got.Delta[i], got.Upslope[i])
	}
}

// requireMatchesPerLayout holds a pair-once result against the per-layout
// oracle: ρ̂ and δ̂ bit for bit, upslope equal wherever the minimiser is
// unique and otherwise valid on both sides (a genuine tie).
func requireMatchesPerLayout(t *testing.T, ds *points.Dataset, cb coBucketed, got, want *Result) {
	t.Helper()
	for i := range want.Rho {
		if math.Float64bits(got.Rho[i]) != math.Float64bits(want.Rho[i]) {
			t.Fatalf("rho[%d] = %v, per-layout %v", i, got.Rho[i], want.Rho[i])
		}
		if math.Float64bits(got.Delta[i]) != math.Float64bits(want.Delta[i]) {
			t.Fatalf("delta[%d] = %v, per-layout %v", i, got.Delta[i], want.Delta[i])
		}
		if got.Upslope[i] != want.Upslope[i] {
			requireValidUpslope(t, ds, cb, got.Rho, i, got.Delta[i], got.Upslope[i])
			requireValidUpslope(t, ds, cb, want.Rho, i, want.Delta[i], want.Upslope[i])
		}
	}
}

func requireSameArrays(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Rho, want.Rho) || !reflect.DeepEqual(got.Delta, want.Delta) || !reflect.DeepEqual(got.Upslope, want.Upslope) {
		t.Fatalf("%s: arrays differ", what)
	}
}

// TestPairOnceMatchesPerLayout is the differential property test of pair
// ownership: on every case and arm the pair-once pipeline reproduces the
// per-layout reducers it replaced, with at most as many distance
// evaluations.
func TestPairOnceMatchesPerLayout(t *testing.T) {
	ctx := context.Background()
	var cluster *rpcmr.Master
	if !testing.Short() {
		rpcmr.RegisterJobs(JobFactories())
		rpcmr.RegisterJobs(perLayoutFactories())
		var err error
		if cluster, err = rpcmr.NewMaster("127.0.0.1:0"); err != nil {
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
	}
	run := func(t *testing.T, eng mapreduce.Engine, ds *points.Dataset, cfg LSHConfig) *Result {
		t.Helper()
		cfg.Engine = eng
		res, err := RunLSHDDP(ctx, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for ci, c := range pairOnceCases() {
		t.Run(c.name, func(t *testing.T) {
			ds, cb, local := c.ds, newCoBucketed(c.ds, c.cfg), c.localEngine()

			want, oracleWork := runPerLayout(t, local, ds, c.cfg)
			base := run(t, local, ds, c.cfg)
			requireMatchesPerLayout(t, ds, cb, base, want)
			requireDeltaFromPairSet(t, ds, cb, base)
			var pruned, skipped int64
			for _, j := range base.Stats.Jobs {
				pruned += j.Counters[CtrPairsPruned]
				skipped += j.Counters[CtrPairsSkipped]
			}
			if base.Stats.DistanceComputations > oracleWork ||
				base.Stats.DistanceComputations+pruned+skipped != oracleWork {
				t.Fatalf("evaluated %d + pruned %d + skipped %d pairs, per-layout reducers evaluated %d",
					base.Stats.DistanceComputations, pruned, skipped, oracleWork)
			}

			if cluster == nil || ci%3 != 0 {
				return
			}
			// On the cluster: the oracle again, and engine identity — every
			// array equal to the local run's.
			wantRPC, _ := runPerLayout(t, cluster, ds, c.cfg)
			baseRPC := run(t, cluster, ds, c.cfg)
			requireMatchesPerLayout(t, ds, cb, baseRPC, wantRPC)
			requireSameArrays(t, "rpcmr vs local", baseRPC, base)
		})
	}
}

// prunedPairs replays the ρ job's reducers on ds and returns, by point IDs,
// every pair they prune: the pairs of the blocks each owns at reach +Inf
// that its blocks at the cutoff's reach leave out.
func prunedPairs(t *testing.T, ds *points.Dataset, cfg LSHConfig) [][2]int32 {
	t.Helper()
	conf := lshConf(ds, cfg)
	tctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
	groups := map[string][][]byte{}
	for _, p := range InputPairs(ds) {
		if err := LSHRhoJob(conf).Map(tctx, p.Key, p.Value, mapreduce.EmitterFunc(func(k string, v []byte) {
			groups[k] = append(groups[k], v)
		})); err != nil {
			t.Fatal(err)
		}
	}
	eachPair := func(blocks []kernels.Block, f func(a, b int)) {
		for _, b := range blocks {
			for x := b.ALo; x < b.AHi; x++ {
				for y := max(b.BLo, x+1); y < b.BHi; y++ {
					f(x, y)
				}
			}
		}
	}
	l, err := layoutsOf(conf)
	if err != nil {
		t.Fatal(err)
	}
	po := new(pairOnce)
	var out [][2]int32
	for key, values := range groups {
		own, err := reducerLayout(key, l)
		if err != nil {
			t.Fatal(err)
		}
		m, err := po.load(l, own, l.M(), values, points.DecodePointsInto)
		if err != nil {
			t.Fatal(err)
		}
		all, _, _ := po.owned(m, own, math.Inf(1))
		all = slices.Clone(all)
		cut, pruned, _ := po.owned(m, own, cfg.Dc*cfg.Dc)
		kept := map[[2]int]bool{}
		eachPair(cut, func(a, b int) { kept[[2]int{a, b}] = true })
		n := len(out)
		eachPair(all, func(a, b int) {
			if !kept[[2]int{a, b}] {
				out = append(out, [2]int32{m.ID(a), m.ID(b)})
			}
		})
		if int64(len(out)-n) != pruned {
			t.Fatalf("partition %s: owned reports %d pruned pairs, its blocks leave out %d", lsh.KeyString(key), pruned, len(out)-n)
		}
		points.PutMatrix(m)
	}
	return out
}

// TestPairOnceCountIdentity pins the meaning of the counters on a small
// input against an O(n²·M) brute force: the ρ job evaluates or prunes
// exactly the distinct co-bucketed pairs — pruning some, each of them at d_c
// or beyond — and skips exactly the repeats; the δ job prunes nothing,
// evaluates exactly the pairs whose two points both travel to the pair's
// owner, skips the rest of the co-bucketed incidences, and counts the
// certified points; the halo job prunes what the ρ job prunes, evaluates the
// cross-cluster pairs of the rest and skips the others.
func TestPairOnceCountIdentity(t *testing.T) {
	ds := dataset.Blobs("count", 300, 3, 4, 30, 2.5, 5)
	cfg := LSHConfig{Config: Config{Engine: testEngine(), Dc: 2, Seed: 3}, M: 7, Pi: 2, W: 9}
	cb := newCoBucketed(ds, cfg)
	var distinct, slots int64
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			if s := cb.shared(i, j); s > 0 {
				distinct++
				slots += int64(s)
			}
		}
	}
	if slots < 2*distinct {
		t.Fatalf("fixture shares too little: %d pairs in %d slots", distinct, slots)
	}
	res, err := RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	certified, deltaPairs, _ := shippedPairs(ds, cb, cfg.Dc, res.Rho)
	if certified == 0 || certified == ds.N() {
		t.Fatalf("fixture certifies %d of %d points: the δ job has nothing or everything to do", certified, ds.N())
	}
	pruned := prunedPairs(t, ds, cfg)
	if len(pruned) == 0 {
		t.Fatal("fixture prunes no pair: the runs-apart certificate goes unexercised")
	}
	for _, p := range pruned {
		if cb.shared(int(p[0]), int(p[1])) == 0 {
			t.Fatalf("pruned pair %v shares no bucket", p)
		}
		if d2 := points.SqDist(ds.Points[p[0]].Pos, ds.Points[p[1]].Pos); d2 < cfg.Dc*cfg.Dc {
			t.Fatalf("pruned pair %v lies within d_c: d² %v < %v", p, d2, cfg.Dc*cfg.Dc)
		}
	}
	rhoPairs := distinct - int64(len(pruned))
	if res.Stats.DistanceComputations != rhoPairs+deltaPairs {
		t.Fatalf("%d distance computations, want %d distinct co-bucketed pairs − %d pruned + %d around open points",
			res.Stats.DistanceComputations, distinct, len(pruned), deltaPairs)
	}
	// The halo job walks the ρ job's owned, unpruned pairs and evaluates the
	// cross-cluster ones.
	labels := make([]int32, ds.N())
	for i := range labels {
		labels[i] = int32(i % 4)
	}
	prunedSet := map[[2]int32]bool{}
	for _, p := range pruned {
		prunedSet[[2]int32{min(p[0], p[1]), max(p[0], p[1])}] = true
	}
	var haloPairs int64
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			if labels[i] != labels[j] && cb.shared(i, j) > 0 && !prunedSet[[2]int32{int32(i), int32(j)}] {
				haloPairs++
			}
		}
	}
	halo, err := RunLSHHalo(context.Background(), ds, res, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][4]int64{ // job → evaluated, pruned, evaluated + pruned + skipped, certified
		JobLSHRho:  {rhoPairs, int64(len(pruned)), slots, 0},
		JobLSHDel:  {deltaPairs, 0, slots, int64(certified)},
		JobLSHHalo: {haloPairs, int64(len(pruned)), slots, 0},
	}
	seen := 0
	for _, j := range slices.Concat(res.Stats.Jobs, halo.Stats.Jobs) {
		w, ok := want[j.Name]
		if !ok {
			continue
		}
		seen++
		ev, pr, sk := j.Counters[mapreduce.CtrDistanceComputations], j.Counters[CtrPairsPruned], j.Counters[CtrPairsSkipped]
		if ce := j.Counters[CtrDeltaCertified]; ev != w[0] || pr != w[1] || ev+pr+sk != w[2] || ce != w[3] {
			t.Fatalf("%s: evaluated %d pruned %d skipped %d certified %d, want %d, %d, %d and %d",
				j.Name, ev, pr, sk, ce, w[0], w[1], w[2]-w[0]-w[1], w[3])
		}
	}
	if seen != len(want) {
		t.Fatalf("%d of the %d LSH jobs ran", seen, len(want))
	}
	if haloPairs >= rhoPairs {
		t.Fatalf("halo evaluates %d pairs, the ρ job %d: same-cluster pairs are not skipped", haloPairs, rhoPairs)
	}
}

// TestPairOnceArrivalOrder: a reducer sorts its rows before any kernel
// runs, so its output is byte-identical under any permutation of its values
// — the in-memory and merged-run shuffles deliver different orders. The ρ,
// δ and halo jobs, every partition of a tie-heavy lattice, each fed records
// without a ship mask, which travel to every layout.
func TestPairOnceArrivalOrder(t *testing.T) {
	rng := points.NewRand(4)
	vs := make([]points.Vector, 400)
	for i := range vs {
		vs[i] = points.Vector{float64(rng.Intn(9)), float64(rng.Intn(9)), float64(rng.Intn(9))}
	}
	ds := points.FromVectors("order", vs)
	rho := make([]float64, ds.N())
	for i := range rho {
		rho[i] = float64(rng.Intn(5))
	}
	cfg := LSHConfig{Config: Config{Dc: 1.5, Seed: 2}, M: 5, Pi: 2, W: 4}
	conf := lshConf(ds, cfg)
	labeled := make([]mapreduce.Pair, ds.N())
	for i, p := range ds.Points {
		labeled[i].Value = encodeLabeled(points.RhoPoint{Point: p, Rho: rho[i]}, int32(rng.Intn(3)), nil)
	}
	for _, tc := range []struct {
		job *mapreduce.Job
		in  []mapreduce.Pair
	}{
		{LSHRhoJob(conf), InputPairs(ds)},
		{LSHDeltaJob(conf), RhoPointPairs(ds, rho)},
		{LSHHaloJob(conf), labeled},
	} {
		tctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
		groups := map[string][][]byte{}
		shipped := 0
		for _, p := range tc.in {
			if err := tc.job.Map(tctx, p.Key, p.Value, mapreduce.EmitterFunc(func(k string, v []byte) {
				groups[k] = append(groups[k], v)
				shipped++
			})); err != nil {
				t.Fatal(err)
			}
		}
		reduce := func(key string, values [][]byte) (out []mapreduce.Pair) {
			if err := tc.job.Reduce(tctx, key, values, mapreduce.EmitterFunc(func(k string, v []byte) {
				out = append(out, mapreduce.Pair{Key: k, Value: v})
			})); err != nil {
				t.Fatal(err)
			}
			return out
		}
		if shipped != ds.N()*cfg.M {
			t.Fatalf("%s: %d records shipped from %d unmasked points, want one to each of %d layouts",
				tc.job.Name, shipped, ds.N(), cfg.M)
		}
		for key, values := range groups {
			want := reduce(key, values)
			shuffled := append([][]byte(nil), values...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := reduce(key, shuffled); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, partition %s (%d rows): output depends on arrival order",
					tc.job.Name, lsh.KeyString(key), len(values))
			}
		}
	}
}

// TestRhoAggFoldsInAnyGrouping: partials are counts and partner lists, so
// combining any subset first, in either order, changes nothing — the
// property that makes the fold its own combiner. The lists hold more
// partners than a point keeps, with ties on d², so the merge evicts.
func TestRhoAggFoldsInAnyGrouping(t *testing.T) {
	conf := mapreduce.Conf{}
	conf.SetInt(confM, 4)
	job := LSHRhoAggJob(conf)
	tctx := &mapreduce.TaskContext{Conf: conf, Counters: mapreduce.NewCounters()}
	enc := func(first int, partners []int32, vals ...float64) []byte {
		p := points.RhoPartial{First: first, Vals: vals}
		for _, id := range partners {
			p.Near = append(p.Near, points.Neighbor{ID: id, D2: float64(id % 4)})
		}
		slices.SortFunc(p.Near, func(a, b points.Neighbor) int {
			if a.D2 != b.D2 {
				return cmp.Compare(a.D2, b.D2)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		return points.AppendRhoPartial(nil, p)
	}
	parts := [][]byte{
		enc(0, []int32{14, 3, 6}, 3, 1, 0, 2),
		enc(1, []int32{5, 11, 8}, 4, 4),
		enc(2, []int32{1, 12}, 1),
		enc(3, []int32{2, 7, 4, 13}, 7),
		enc(0, nil),
	}
	fold := func(f mapreduce.ReduceFunc, values [][]byte) (out [][]byte) {
		if err := f(tctx, mapreduce.IDKey(9), values, mapreduce.EmitterFunc(func(_ string, v []byte) { out = append(out, v) })); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := fold(job.Reduce, parts)
	rv, err := points.DecodeRhoValue(want[0], 9)
	if err != nil || rv.Rho != 9 || len(rv.Near) != nearK || rv.Near[0].ID != 4 || rv.Near[nearK-1].ID != 6 {
		t.Fatalf("fold = %+v, %v; want id 9, max(3, 5, 5, 9), partners 4 8 12 1 5 13 2 6", rv, err)
	}
	reversed := slices.Clone(parts)
	slices.Reverse(reversed)
	if got := fold(job.Reduce, reversed); !reflect.DeepEqual(got, want) {
		t.Fatal("reversing the partials changed the fold")
	}
	for split := 1; split < len(parts); split++ {
		head, tail := fold(job.Combine, parts[:split]), fold(job.Combine, parts[split:])
		for _, regrouped := range [][][]byte{slices.Concat(tail, head), slices.Concat(head, tail)} {
			if got := fold(job.Reduce, regrouped); !reflect.DeepEqual(got, want) {
				t.Fatalf("combining %d + %d partials first changed the fold", split, len(parts)-split)
			}
		}
	}
	if _, err := new(rhoAgg).add(mapreduce.IDKey(9), [][]byte{enc(2, nil, 1, 1, 1)}, 4); err == nil {
		t.Fatal("partial reaching past the last layout accepted")
	}
}
