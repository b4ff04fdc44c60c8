package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
)

// filled is cfg with its constant defaults set, for tests that build an LSH
// job's Conf or layouts by hand.
func filled(cfg LSHConfig) LSHConfig {
	if err := cfg.defaults(); err != nil {
		panic(err)
	}
	return cfg
}

// jobCounter is a local engine that counts the jobs it runs.
type jobCounter struct {
	mapreduce.LocalEngine
	jobs int
}

func (e *jobCounter) Run(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) (*mapreduce.Result, error) {
	e.jobs++
	return e.LocalEngine.Run(ctx, job, input)
}

// TestAccuracyRefusedBeforeAnyJob: an Accuracy of 1 or more has no width
// under Eq. 5, so RunLSHDDP refuses it, naming the field, before any job
// runs — with W 0, where the width would be solved from it, and with W
// pinned, where it would go unread. 0 and a fraction still run.
func TestAccuracyRefusedBeforeAnyJob(t *testing.T) {
	ds := dataset.Blobs("lsh-accuracy", 200, 2, 3, 40, 2, 1)
	for _, tc := range []struct {
		accuracy, w float64
		refused     bool
	}{{1, 0, true}, {1, 2, true}, {1.5, 0, true}, {1.5, 2, true}, {0, 0, false}, {0.9, 2, false}} {
		eng := &jobCounter{}
		_, err := RunLSHDDP(context.Background(), ds, LSHConfig{Config: Config{Engine: eng, Seed: 1}, Accuracy: tc.accuracy, W: tc.w})
		switch {
		case tc.refused && (err == nil || !strings.Contains(err.Error(), "Accuracy") || eng.jobs != 0):
			t.Errorf("Accuracy %v W %v: err %v after %d jobs, want Accuracy refused before any job", tc.accuracy, tc.w, err, eng.jobs)
		case !tc.refused && (err != nil || eng.jobs == 0):
			t.Errorf("Accuracy %v W %v: err %v after %d jobs, want a run", tc.accuracy, tc.w, err, eng.jobs)
		}
	}
}
