package eddpc

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

func testEngine() mapreduce.Engine { return &mapreduce.LocalEngine{Parallelism: 4} }

// jobCounter is a local engine that counts the jobs it runs.
type jobCounter struct {
	mapreduce.LocalEngine
	jobs int
}

func (e *jobCounter) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	e.jobs++
	return e.LocalEngine.Run(ctx, job, input)
}

// TestPivotsRefusedWhenNegative: Run refuses a negative Pivots, naming the
// field, before any job runs; 0 still chooses the default count.
func TestPivotsRefusedWhenNegative(t *testing.T) {
	ds := dataset.Blobs("eddpc-pivots", 200, 2, 3, 40, 2, 1)
	for _, tc := range []struct {
		pivots  int
		refused bool
	}{{-1, true}, {math.MinInt, true}, {0, false}, {4, false}} {
		eng := &jobCounter{}
		_, err := Run(context.Background(), ds, Config{Config: core.Config{Engine: eng, Dc: 3, Seed: 1}, Pivots: tc.pivots})
		switch {
		case tc.refused && (err == nil || !strings.Contains(err.Error(), "Pivots") || eng.jobs != 0):
			t.Errorf("Pivots %d: err %v after %d jobs, want Pivots refused before any job", tc.pivots, err, eng.jobs)
		case !tc.refused && (err != nil || eng.jobs == 0):
			t.Errorf("Pivots %d: err %v after %d jobs, want a run", tc.pivots, err, eng.jobs)
		}
	}
}

func TestEDDPCMatchesSequentialDP(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ds     *points.Dataset
		pivots int
	}{
		{"blobs-few-pivots", dataset.Blobs("eddpc-a", 500, 3, 4, 100, 4, 7), 8},
		{"blobs-many-pivots", dataset.Blobs("eddpc-b", 500, 3, 4, 100, 4, 7), 40},
		{"highdim", dataset.BigCross(400, 11), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dc := dp.CutoffByPercentile(tc.ds, 0.02, 1)
			ref, err := dp.Compute(tc.ds, dc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), tc.ds, Config{
				Config: core.Config{Engine: testEngine(), Dc: dc, Seed: 3},
				Pivots: tc.pivots,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Rho {
				if res.Rho[i] != ref.Rho[i] {
					t.Fatalf("rho[%d] = %v, want %v", i, res.Rho[i], ref.Rho[i])
				}
				if math.Abs(res.Delta[i]-ref.Delta[i]) > 1e-9 {
					t.Fatalf("delta[%d] = %v, want %v (upslope %d vs %d)",
						i, res.Delta[i], ref.Delta[i], res.Upslope[i], ref.Upslope[i])
				}
			}
		})
	}
}

// TestEDDPCMatchesBasicOnTies: on a 16 × 12 integer lattice stored twice,
// where δ ties are the rule, EDDPC gives Basic-DDP's ρ, δ and upslope — the
// lowest ID among the denser points at exactly δ, wherever its cell — at
// the sampled d_c and at d_c 1.5 and 2.5, with the default pivot count and
// with 5 and 17 pivots.
func TestEDDPCMatchesBasicOnTies(t *testing.T) {
	const w, h = 16, 12
	vs := make([]points.Vector, 2*w*h)
	for i := range w * h {
		vs[i] = points.Vector{float64(w - 1 - i%w), float64(h - 1 - i/w)}
		vs[2*w*h-1-i] = slices.Clone(vs[i])
	}
	ds := points.FromVectors("ties", vs)
	for _, dc := range []float64{0, 1.5, 2.5} {
		for _, pivots := range []int{0, 5, 17} {
			cfg := core.Config{Engine: testEngine(), Dc: dc, Seed: 1}
			basic, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			ed, err := Run(context.Background(), ds, Config{Config: cfg, Pivots: pivots})
			if err != nil {
				t.Fatal(err)
			}
			for i := range vs {
				if ed.Rho[i] != basic.Rho[i] || ed.Delta[i] != basic.Delta[i] || ed.Upslope[i] != basic.Upslope[i] {
					t.Fatalf("dc=%v pivots=%d point %d: EDDPC (ρ %v, δ %v, upslope %d), Basic-DDP (ρ %v, δ %v, upslope %d)",
						dc, pivots, i, ed.Rho[i], ed.Delta[i], ed.Upslope[i], basic.Rho[i], basic.Delta[i], basic.Upslope[i])
				}
			}
		}
	}
}

func TestEDDPCFewerDistancesThanBasic(t *testing.T) {
	ds := dataset.Blobs("eddpc-cost", 3000, 4, 6, 200, 3, 19)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	basic, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{
		Config:    core.Config{Engine: testEngine(), Dc: dc},
		BlockSize: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	ed, err := Run(context.Background(), ds, Config{
		Config: core.Config{Engine: testEngine(), Dc: dc, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ed.Stats.DistanceComputations >= basic.Stats.DistanceComputations {
		t.Fatalf("EDDPC distances %d not below Basic-DDP %d",
			ed.Stats.DistanceComputations, basic.Stats.DistanceComputations)
	}
	if ed.Stats.ShuffleBytes >= basic.Stats.ShuffleBytes {
		t.Fatalf("EDDPC shuffle %d not below Basic-DDP %d",
			ed.Stats.ShuffleBytes, basic.Stats.ShuffleBytes)
	}
}

func TestEDDPCDeterministic(t *testing.T) {
	ds := dataset.Blobs("eddpc-det", 400, 3, 3, 80, 3, 29)
	cfg := Config{Config: core.Config{Engine: testEngine(), Seed: 5}}
	a, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rho {
		if a.Rho[i] != b.Rho[i] || a.Delta[i] != b.Delta[i] || a.Upslope[i] != b.Upslope[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestPivotCodecRoundTrip(t *testing.T) {
	pv := []points.Vector{{1, 2, 3}, {-4.5, 0, 9.25}, {0, 0, 0}}
	a, err := newAssigner(mapreduce.Conf{confPivots: points.EncodeVectors(pv)})
	if err != nil {
		t.Fatal(err)
	}
	got := a.pivots
	if len(got) != len(pv) {
		t.Fatalf("decoded %d pivots, want %d", len(got), len(pv))
	}
	for i := range pv {
		for j := range pv[i] {
			if got[i][j] != pv[i][j] {
				t.Fatalf("pivot[%d][%d] = %v, want %v", i, j, got[i][j], pv[i][j])
			}
		}
	}
}

func TestBisectorBoundIsLowerBound(t *testing.T) {
	// For random points and pivots, bound(p, c) must never exceed the true
	// distance from p to any point whose home cell is c.
	ds := dataset.Blobs("eddpc-bound", 300, 3, 3, 50, 5, 41)
	pivots := samplePivots(ds, 10, 7)
	conf := mapreduce.Conf{confPivots: points.EncodeVectors(pivots)}
	a, err := newAssigner(conf)
	if err != nil {
		t.Fatal(err)
	}
	var nd int64
	asg := make([]cellAssignment, ds.N())
	for i, p := range ds.Points {
		asg[i] = a.assign(p.Pos, &nd)
	}
	for i := 0; i < ds.N(); i += 7 {
		for j := 0; j < ds.N(); j += 5 {
			if i == j {
				continue
			}
			cj := asg[j].home
			if cj == asg[i].home {
				continue
			}
			bound := asg[i].bounds[cj]
			d := points.Dist(ds.Points[i].Pos, ds.Points[j].Pos)
			if bound > d+1e-9 {
				t.Fatalf("bound(%d, cell %d) = %v exceeds distance %v to member %d", i, cj, bound, d, j)
			}
		}
	}
}
