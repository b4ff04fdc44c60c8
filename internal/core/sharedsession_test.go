package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/obs"
	"repro/internal/points"
)

// A second run's Stats must be exactly what it reports alone — its own
// jobs, its own spans and its own dag.*
// deltas, staged input included — with nothing of an earlier run in it:
//   - "session": two d_c jobs on one caller's dag.Session, each carved out
//     by CollectStats from the mark taken before it staged its input;
//   - "engine": two LSH-DDP pipelines on one Config, whose engine they
//     share while each builds its own session.
func TestSharedSessionStatsAreOwn(t *testing.T) {
	ctx := context.Background()
	other := dataset.Blobs("shared-other", 400, 3, 3, 120, 2, 31)
	ds := dataset.Blobs("shared-own", 500, 3, 4, 150, 2, 32)
	engine := func() mapreduce.Engine { return &mapreduce.LocalEngine{Parallelism: 3} }

	t.Run("session", func(t *testing.T) {
		cfg := Config{Seed: 8}
		dcStats := func(sess *dag.Session, d *points.Dataset) Stats {
			t.Helper()
			start, mark := time.Now(), sess.Mark()
			dc, err := ChooseDc(ctx, sess, d, &cfg, sess.Stage(InputPairs(d)))
			if err != nil {
				t.Fatal(err)
			}
			st := Stats{Dc: dc}
			CollectStats(&st, sess, mark, start)
			return st
		}
		alone := dcStats(dag.NewSession(engine(), dag.Options{}), ds)
		sess := dag.NewSession(engine(), dag.Options{})
		first := dcStats(sess, other)
		shared := dcStats(sess, ds)
		if shared.Dc != alone.Dc {
			t.Fatalf("d_c: shared %v, alone %v", shared.Dc, alone.Dc)
		}
		if len(sess.Jobs()) != len(first.Jobs)+len(shared.Jobs) {
			t.Fatalf("jobs: %d first, %d shared, %d on the session", len(first.Jobs), len(shared.Jobs), len(sess.Jobs()))
		}
		requireSameStats(t, shared, alone)
	})

	t.Run("engine", func(t *testing.T) {
		lsh := func(eng mapreduce.Engine) LSHConfig {
			return LSHConfig{
				Config:   Config{Engine: eng, Seed: 8},
				Accuracy: 0.99, M: 4, Pi: 3,
			}
		}
		alone, err := RunLSHDDP(ctx, ds, lsh(engine()))
		if err != nil {
			t.Fatal(err)
		}
		cfg := lsh(engine())
		if _, err := RunLSHDDP(ctx, other, cfg); err != nil {
			t.Fatal(err)
		}
		shared, err := RunLSHDDP(ctx, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStats(t, shared.Stats, alone.Stats)
	})
}

// requireSameStats compares two runs' Stats job by job, in totals, in dag.*
// deltas and in phases with wall times ignored.
func requireSameStats(t *testing.T, shared, alone Stats) {
	t.Helper()
	if len(shared.Jobs) != len(alone.Jobs) {
		t.Fatalf("jobs: %d shared, %d alone", len(shared.Jobs), len(alone.Jobs))
	}
	for i, want := range alone.Jobs {
		got := shared.Jobs[i]
		if got.Name != want.Name || got.Records != want.Records || !reflect.DeepEqual(got.Counters, want.Counters) {
			t.Fatalf("job %d: shared reports %+v, alone %+v", i, got, want)
		}
	}
	if shared.ShuffleBytes != alone.ShuffleBytes || shared.DistanceComputations != alone.DistanceComputations {
		t.Fatalf("totals: shared %d B / %d dist, alone %d B / %d dist", shared.ShuffleBytes,
			shared.DistanceComputations, alone.ShuffleBytes, alone.DistanceComputations)
	}
	if !reflect.DeepEqual(shared.Dag, alone.Dag) {
		t.Fatalf("dag counters: shared %v, alone %v", shared.Dag, alone.Dag)
	}
	if shared.Dag[dag.CtrStageBytes] == 0 {
		t.Fatal("the run's staged input is missing from its dag counters")
	}
	unwalled := func(pt obs.PhaseTotals) obs.PhaseTotals {
		out := obs.PhaseTotals{}
		for ph, st := range pt {
			st.Wall = 0
			out[ph] = st
		}
		return out
	}
	if got, want := unwalled(shared.Phases), unwalled(alone.Phases); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases: shared %v, alone %v", got, want)
	}
	if shared.Phases[obs.PhaseReduce].Tasks == 0 {
		t.Fatalf("phases miss the jobs' spans: %v", shared.Phases)
	}
}
