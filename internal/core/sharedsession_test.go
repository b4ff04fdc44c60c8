package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/obs"
)

// Two pipelines on one Config.Session: the second one's Stats must be
// exactly what it reports alone on a private session — its own jobs, its
// own spans (job phases and scheduler nodes) and its own dag.* deltas,
// staged input included — with nothing of the first pipeline's in it.
func TestSharedSessionStatsAreOwn(t *testing.T) {
	other := dataset.Blobs("shared-other", 400, 3, 3, 120, 2, 31)
	ds := dataset.Blobs("shared-own", 500, 3, 4, 150, 2, 32)
	cfg := func(sess *dag.Session) LSHConfig {
		return LSHConfig{
			Config:   Config{Engine: &mapreduce.LocalEngine{Parallelism: 3}, Session: sess, Seed: 8, NumReduces: 3},
			Accuracy: 0.99, M: 4, Pi: 3,
		}
	}
	alone, err := RunLSHDDP(context.Background(), ds, cfg(nil))
	if err != nil {
		t.Fatal(err)
	}

	sess := dag.NewSession(&mapreduce.LocalEngine{Parallelism: 3}, dag.Options{})
	first, err := RunLSHDDP(context.Background(), other, cfg(sess))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunLSHDDP(context.Background(), ds, cfg(sess))
	if err != nil {
		t.Fatal(err)
	}

	if len(shared.Stats.Jobs) != len(alone.Stats.Jobs) || len(sess.Jobs()) != len(first.Stats.Jobs)+len(shared.Stats.Jobs) {
		t.Fatalf("jobs: %d shared, %d alone, %d first, %d on the session",
			len(shared.Stats.Jobs), len(alone.Stats.Jobs), len(first.Stats.Jobs), len(sess.Jobs()))
	}
	for i, want := range alone.Stats.Jobs {
		got := shared.Stats.Jobs[i]
		if got.Name != want.Name || got.Records != want.Records || !reflect.DeepEqual(got.Counters, want.Counters) {
			t.Fatalf("job %d: shared session reports %+v, private session %+v", i, got, want)
		}
	}
	if shared.Stats.ShuffleBytes != alone.Stats.ShuffleBytes || shared.Stats.DistanceComputations != alone.Stats.DistanceComputations {
		t.Fatalf("totals: shared %d B / %d dist, alone %d B / %d dist", shared.Stats.ShuffleBytes,
			shared.Stats.DistanceComputations, alone.Stats.ShuffleBytes, alone.Stats.DistanceComputations)
	}
	if !reflect.DeepEqual(shared.Stats.Dag, alone.Stats.Dag) {
		t.Fatalf("dag counters: shared %v, alone %v", shared.Stats.Dag, alone.Stats.Dag)
	}
	if shared.Stats.Dag[dag.CtrStageBytes] == 0 {
		t.Fatal("the pipeline's staged input is missing from its dag counters")
	}
	unwalled := func(pt obs.PhaseTotals) obs.PhaseTotals {
		out := obs.PhaseTotals{}
		for ph, st := range pt {
			st.Wall = 0
			out[ph] = st
		}
		return out
	}
	if got, want := unwalled(shared.Stats.Phases), unwalled(alone.Stats.Phases); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases: shared %v, alone %v", got, want)
	}
	if shared.Stats.Phases[obs.PhaseDag].Tasks == 0 || shared.Stats.Phases[obs.PhaseReduce].Tasks == 0 {
		t.Fatalf("phases miss the scheduler's or the jobs' spans: %v", shared.Stats.Phases)
	}
}
