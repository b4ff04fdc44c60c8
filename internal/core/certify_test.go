package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dp"
	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

// coBucketedByDistance returns every point i shares a bucket with, in
// (d², ID) order: U_i.
func coBucketedByDistance(ds *points.Dataset, cb coBucketed, i int) []points.Neighbor {
	var u []points.Neighbor
	for j := range ds.Points {
		if j != i && cb.shared(i, j) > 0 {
			u = append(u, points.Neighbor{ID: int32(j), D2: points.SqDist(ds.Points[i].Pos, ds.Points[j].Pos)})
		}
	}
	slices.SortFunc(u, func(a, b points.Neighbor) int {
		return cmp.Or(cmp.Compare(a.D2, b.D2), cmp.Compare(a.ID, b.ID))
	})
	return u
}

// listHead is what the ρ pass's merged list of i must be: the first nearK
// points of U_i, as far as they lie within d_c.
func listHead(ds *points.Dataset, cb coBucketed, dc float64, i int) []points.Neighbor {
	u := coBucketedByDistance(ds, cb, i)
	n := 0
	for n < len(u) && n < nearK && u[n].D2 < dc*dc {
		n++
	}
	return u[:n]
}

// shippedPairs replays, by brute force, the certificate on the list head of
// every point and the shipping rule on its outcome, and counts the points it
// certifies, the pairs the δ job then evaluates — both points travel to the
// pair's owner, its lowest shared layout — and the (pair, layout)
// incidences whose two points both travel to that layout.
func shippedPairs(ds *points.Dataset, cb coBucketed, dc float64, rho []float64) (certified int, evaluated, slots int64) {
	n, m := ds.N(), len(cb.keys[0])
	done := make([]bool, n)
	for i := range done {
		if _, done[i] = certify(rho, int32(i), listHead(ds, cb, dc, i)); done[i] {
			certified++
		}
	}
	shipped := make([]bool, n*m)
	for i := range n {
		for l := range m {
			shipped[i*m+l] = !done[i]
			for u := 0; u < n && !shipped[i*m+l]; u++ {
				shipped[i*m+l] = !done[u] && rho[u] == rho[u] && cb.keys[u][l] == cb.keys[i][l] &&
					dp.DenserVals(rho[i], rho[u], int32(i), int32(u))
			}
		}
	}
	for i := range n {
		for j := 0; j < i; j++ {
			owner := -1
			for l := range m {
				if cb.keys[i][l] != cb.keys[j][l] {
					continue
				}
				if owner < 0 {
					owner = l
				}
				if shipped[i*m+l] && shipped[j*m+l] {
					slots++
					if l == owner {
						evaluated++
					}
				}
			}
		}
	}
	return certified, evaluated, slots
}

// TestCertifiedDeltaMatchesBruteForce is the differential test of the
// certificate: on every pair-once case, for cutoff, mean and Gaussian ρ̂, on
// the local engine and (every third case) a 3-worker rpcmr cluster, each
// point's merged list is the (d², ID) head of U_i within d_c, exactly the points the
// certificate decides on those heads are certified and counted, each
// certified δ̂ and upslope is U_i's first denser point, the pipeline reports
// them, and every listed d² is bit-equal to what kernels.Delta computes for
// the pair. The data — lattice ties, duplicates — must leave some points
// open and certify others; k is never changed to force either.
func TestCertifiedDeltaMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	local := testEngine()
	var cluster *rpcmr.Master
	if !testing.Short() {
		rpcmr.RegisterJobs(JobFactories())
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
	var certified, open int
	for ci, c := range pairOnceCases() {
		ds, cb := c.ds, newCoBucketed(c.ds, c.cfg)
		heads := make([][]points.Neighbor, ds.N())
		for i := range heads {
			heads[i] = listHead(ds, cb, c.cfg.Dc, i)
		}
		mean, gauss := c.cfg, c.cfg
		mean.AggregateMean = true
		gauss.Kernel = dp.KernelGaussian
		engines := []mapreduce.Engine{local}
		if cluster != nil && ci%3 == 0 {
			engines = append(engines, cluster)
		}
		for _, arm := range []struct {
			name string
			cfg  LSHConfig
		}{{"cutoff", c.cfg}, {"mean", mean}, {"gaussian", gauss}} {
			for ei, eng := range engines {
				t.Run(fmt.Sprintf("%s/%s/engine%d", c.name, arm.name, ei), func(t *testing.T) {
					cfg := arm.cfg
					cfg.Engine = eng
					conf := lshConf(ds, cfg)
					run := func(job *mapreduce.Job, in []mapreduce.Pair) []mapreduce.Pair {
						res, err := eng.Run(ctx, job.WithReduces(cfg.NumReduces), in)
						if err != nil {
							t.Fatalf("%s: %v", job.Name, err)
						}
						return res.Output
					}
					rhoOut := run(LSHRhoAggJob(conf.Clone()), run(LSHRhoJob(conf.Clone()), InputPairs(ds)))
					rho, near, err := decodeRhoValues(rhoOut, ds.N())
					if err != nil {
						t.Fatal(err)
					}
					for i := range near {
						if !slices.Equal(near[i], heads[i]) {
							t.Fatalf("point %d: list %v, head of U_i %v", i, near[i], heads[i])
						}
					}
					certOut, err := certifyDelta(rhoOut, ds.N())
					if err != nil {
						t.Fatal(err)
					}
					res, err := RunLSHDDP(ctx, ds, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var counted int64
					for _, j := range res.Stats.Jobs {
						counted += j.Counters[CtrDeltaCertified]
					}
					if want, _, _ := shippedPairs(ds, cb, cfg.Dc, rho); counted != int64(want) || len(certOut) != want {
						t.Fatalf("%s counts %d and the transform certified %d points, the brute-force certificate %d",
							CtrDeltaCertified, counted, len(certOut), want)
					}
					for _, p := range certOut {
						dv, err := points.DecodeDeltaValue(p.Value)
						if err != nil {
							t.Fatal(err)
						}
						i := dv.ID
						var want points.DeltaValue
						for _, e := range coBucketedByDistance(ds, cb, int(i)) {
							if dp.DenserVals(rho[e.ID], rho[i], e.ID, i) {
								want = points.DeltaValue{ID: i, Delta: math.Sqrt(e.D2), Upslope: e.ID}
								break
							}
						}
						if dv != want {
							t.Fatalf("point %d: certified %+v, brute force %+v", i, dv, want)
						}
						if math.Float64bits(res.Rho[i]) != math.Float64bits(rho[i]) ||
							math.Float64bits(res.Delta[i]) != math.Float64bits(dv.Delta) || res.Upslope[i] != dv.Upslope {
							t.Fatalf("point %d: pipeline (%v, %v, %d), certified (%v, %v, %d)",
								i, res.Rho[i], res.Delta[i], res.Upslope[i], rho[i], dv.Delta, dv.Upslope)
						}
						if ei == 0 {
							for _, e := range near[i] {
								requireDeltaDistance(t, ds, i, e)
							}
						}
					}
					certified += len(certOut)
					open += ds.N() - len(certOut)
				})
			}
		}
	}
	if certified == 0 || open == 0 {
		t.Fatalf("%d certified and %d open points over all cases: the suite must exercise both paths", certified, open)
	}
	t.Logf("%d certified and %d open points over all cases", certified, open)
}

// requireDeltaDistance checks that a listed d² is bit-equal to the squared
// distance kernels.Delta evaluates for the same pair, either way round.
func requireDeltaDistance(t *testing.T, ds *points.Dataset, i int32, e points.Neighbor) {
	t.Helper()
	for _, pair := range [][2]int32{{i, e.ID}, {e.ID, i}} {
		m := points.GetMatrix()
		err := points.DecodeRhoPointsInto(m, [][]byte{
			points.EncodeRhoPoint(points.RhoPoint{Point: ds.Points[pair[0]]}),
			points.EncodeRhoPoint(points.RhoPoint{Point: ds.Points[pair[1]], Rho: 1}),
		})
		if err != nil {
			t.Fatal(err)
		}
		acc := kernels.NewDeltaAcc(2, false)
		kernels.Delta(m, []kernels.Block{kernels.Triangle(0, 2)}, acc)
		points.PutMatrix(m)
		if math.Float64bits(acc.Best2[0]) != math.Float64bits(e.D2) {
			t.Fatalf("pair (%d, %d): listed d² %v, kernels.Delta %v", pair[0], pair[1], e.D2, acc.Best2[0])
		}
	}
}
