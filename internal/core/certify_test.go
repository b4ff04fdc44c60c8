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
	heads := make([][]points.Neighbor, n)
	for i := range heads {
		heads[i] = listHead(ds, cb, dc, i)
	}
	_, _, open := certify(rho, heads)
	for i := range open {
		if !open[i] {
			certified++
		}
	}
	shipped := make([]bool, n*m)
	for i := range n {
		for l := range m {
			shipped[i*m+l] = open[i]
			for u := 0; u < n && !shipped[i*m+l]; u++ {
				shipped[i*m+l] = open[u] && rho[u] == rho[u] && cb.keys[u][l] == cb.keys[i][l] &&
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

// meanRhoEngine runs jobs on Engine but replaces every ρ̂ the ρ aggregation
// emits with the mean of the point's M local densities: a ρ̂ that is not the
// max of counts — fractional, with other ties — on which the certificate
// and the δ stage must be just as exact.
type meanRhoEngine struct{ mapreduce.Engine }

func (e meanRhoEngine) Run(ctx context.Context, job *mapreduce.Job, in []mapreduce.Pair) (*mapreduce.Result, error) {
	res, err := e.Engine.Run(ctx, job, in)
	if err != nil || job.Name != JobLSHRhoAgg {
		return res, err
	}
	partials := map[string][][]byte{}
	for _, p := range in {
		partials[p.Key] = append(partials[p.Key], p.Value)
	}
	m := job.Conf.GetInt(confM, 1)
	out := make([]mapreduce.Pair, len(res.Output))
	for i, p := range res.Output {
		id, err := mapreduce.ParseIDKey(p.Key)
		if err != nil {
			return nil, err
		}
		rv, err := points.DecodeRhoValue(p.Value, id)
		if err != nil {
			return nil, err
		}
		total, err := new(rhoAgg).add(p.Key, partials[p.Key], m)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, v := range total.Vals {
			sum += v
		}
		rv.Rho = sum / float64(m)
		out[i] = mapreduce.Pair{Key: p.Key, Value: points.EncodeRhoValue(rv)}
	}
	res.Output = out
	return res, nil
}

// TestCertifiedDeltaMatchesBruteForce is the differential test of the
// certificate: on every pair-once case, for max and mean ρ̂ (meanRhoEngine), on
// the case's local engine and (every third case) a 3-worker rpcmr cluster, each
// point's merged list is the (d², ID) head of U_i within d_c, exactly the points the
// certificate decides on those heads are certified and counted, each
// certified δ̂ and upslope is U_i's first denser point, the pipeline reports
// them, and every listed d² is bit-equal to what kernels.Delta computes for
// the pair. The data — lattice ties, duplicates — must leave some points
// open and certify others; k is never changed to force either.
func TestCertifiedDeltaMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
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
		engines := []mapreduce.Engine{c.localEngine()}
		if cluster != nil && ci%3 == 0 {
			engines = append(engines, cluster)
		}
		for _, arm := range []struct {
			name string
			wrap func(mapreduce.Engine) mapreduce.Engine
		}{
			{"cutoff", func(e mapreduce.Engine) mapreduce.Engine { return e }},
			{"mean", func(e mapreduce.Engine) mapreduce.Engine { return meanRhoEngine{e} }},
		} {
			for ei, eng := range engines {
				eng := arm.wrap(eng)
				t.Run(fmt.Sprintf("%s/%s/engine%d", c.name, arm.name, ei), func(t *testing.T) {
					cfg := c.cfg
					cfg.Engine = eng
					conf := lshConf(ds, cfg)
					run := func(job *mapreduce.Job, in []mapreduce.Pair) []mapreduce.Pair {
						res, err := eng.Run(ctx, job, in)
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
					delta, upslope, isOpen := certify(rho, near)
					var certOut []int32
					for i, o := range isOpen {
						if !o {
							certOut = append(certOut, int32(i))
						}
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
						t.Fatalf("%s counts %d and certify certified %d points, the brute-force certificate %d",
							CtrDeltaCertified, counted, len(certOut), want)
					}
					for _, i := range certOut {
						dv := points.DeltaValue{Delta: delta[i], Upslope: upslope[i]}
						var want points.DeltaValue
						for _, e := range coBucketedByDistance(ds, cb, int(i)) {
							if dp.DenserVals(rho[e.ID], rho[i], e.ID, i) {
								want = points.DeltaValue{Delta: math.Sqrt(e.D2), Upslope: e.ID}
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

// TestDecodeOpenDeltasRefuses: the δ aggregation's output fills the open
// points' slots of the certified arrays, so a record for a certified point,
// a second record for an open one, no record for an open one and a key out
// of range are each an error, and the certified slots keep their values.
// DecodeDeltaArrays, the all-open form, still wants one record per point.
func TestDecodeOpenDeltasRefuses(t *testing.T) {
	rec := func(id int32, d float64, up int32) mapreduce.Pair {
		return mapreduce.Pair{Key: mapreduce.IDKey(id), Value: points.EncodeDeltaValue(points.DeltaValue{Delta: d, Upslope: up})}
	}
	open := []bool{true, false, true, false}
	good := []mapreduce.Pair{rec(2, 1.5, 0), rec(0, math.Inf(1), -1)}
	delta, upslope := []float64{0, 0.5, 0, 0.25}, []int32{0, 2, 0, 1}
	if err := decodeOpenDeltas(good, delta, upslope, open); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(delta, []float64{math.Inf(1), 0.5, 1.5, 0.25}) || !slices.Equal(upslope, []int32{-1, 2, 0, 1}) {
		t.Fatalf("decoded delta %v, upslope %v", delta, upslope)
	}
	for _, c := range []struct {
		name string
		out  []mapreduce.Pair
	}{
		{"a certified point's record", append(slices.Clone(good), rec(1, 0.5, 2))},
		{"two records for an open point", append(slices.Clone(good), rec(2, 1.5, 0))},
		{"no record for an open point", good[:1]},
		{"a key past the last point", append(slices.Clone(good), rec(4, 1, 0))},
		{"a negative key", append(slices.Clone(good), rec(-1, 1, 0))},
	} {
		if err := decodeOpenDeltas(c.out, make([]float64, 4), make([]int32, 4), open); err == nil {
			t.Errorf("%s: decoded without an error", c.name)
		}
	}
	all := append(slices.Clone(good), rec(3, 0.25, 1), rec(1, 0.5, 2))
	if delta, upslope, err := DecodeDeltaArrays(all, 4); err != nil ||
		!slices.Equal(delta, []float64{math.Inf(1), 0.5, 1.5, 0.25}) || !slices.Equal(upslope, []int32{-1, 2, 0, 1}) {
		t.Fatalf("DecodeDeltaArrays: delta %v, upslope %v, error %v", delta, upslope, err)
	}
	for _, out := range [][]mapreduce.Pair{all[:3], append(slices.Clone(all), rec(3, 0.25, 1)), append(slices.Clone(all), rec(4, 1, 0))} {
		if _, _, err := DecodeDeltaArrays(out, 4); err == nil {
			t.Errorf("DecodeDeltaArrays decoded %d records for 4 points without an error", len(out))
		}
	}
}
