// Package kmeansmr implements distributed K-means on the internal
// MapReduce framework — the paper's Figure 11 comparator. Each Lloyd
// iteration is one MapReduce job with the classic dataflow: the map side
// assigns every point to its nearest centroid and emits a partial sum, a
// combiner collapses partial sums per centroid within each map task, and
// the reduce side recomputes centroids. Centroids travel to tasks through
// the job Conf (as Hadoop ships them via the distributed cache), so the
// jobs run unchanged on the distributed engine.
package kmeansmr

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/knob"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// JobIterate is the registry name of the per-iteration job.
const JobIterate = "kmeans-iterate"

const (
	confCentroids = "kmeans.centroids"
	confK         = "kmeans.k"
)

// Config tunes a run.
type Config struct {
	// Engine runs the jobs; nil means a default LocalEngine.
	Engine mapreduce.Engine
	// K is the number of clusters (required).
	K int
	// MaxIter is the number of iterations (0: 100, the paper's fixed
	// setting).
	MaxIter int
	// Seed drives the k-means++ style initialization.
	Seed int64
}

// Validate refuses a K below 1 and a negative MaxIter.
func (c *Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("kmeansmr: K %d is below 1", c.K)
	}
	return knob.Count("kmeansmr: MaxIter", c.MaxIter)
}

// IterStats records one executed iteration.
type IterStats struct {
	Iteration    int
	Wall         time.Duration
	ShuffleBytes int64
	Distances    int64
	MaxMove      float64
}

// Result is the outcome of a distributed K-means run.
type Result struct {
	Labels     []int
	Centers    []points.Vector
	Iterations []IterStats
	// Wall is the summed job wall time (the Figure 11 y-axis).
	Wall time.Duration
	// ShuffleBytes and Distances are totals across iterations.
	ShuffleBytes int64
	Distances    int64
	// Dag holds the run's dag.* session counters. In particular
	// dag.stage.bytes records the input volume staged ONCE for the whole
	// run — the regression signal that iterations no longer re-stage the
	// dataset each round.
	Dag map[string]int64
}

// Run executes distributed K-means as a driver loop of jobs: the input is
// staged on the session once and every Lloyd iteration runs one job over
// the same staged dataset — 100 iterations stage the points one time, not
// 100 times. Labels are computed from the final centroids in a last pass
// (counted in Distances but not as an iteration).
func Run(ctx context.Context, ds *points.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K > ds.N() {
		return nil, fmt.Errorf("kmeansmr: k=%d out of range for %d points", cfg.K, ds.N())
	}
	maxIter := cmp.Or(cfg.MaxIter, 100)
	sess := dag.NewSession(cmp.Or[mapreduce.Engine](cfg.Engine, &mapreduce.LocalEngine{}), dag.Options{})
	input := sess.Stage(core.InputPairs(ds))
	centers := initialCenters(ds, cfg.K, cfg.Seed)
	res := &Result{}

	for it := 0; it < maxIter; it++ {
		conf := mapreduce.Conf{}
		conf.SetInt(confK, cfg.K)
		conf[confCentroids] = points.EncodeVectors(centers)
		out, err := sess.Run(ctx, IterateJob(conf), input)
		if err != nil {
			return nil, fmt.Errorf("kmeansmr: iteration %d: %w", it, err)
		}
		next, err := decodeNewCentroids(out, centers)
		if err != nil {
			return nil, err
		}
		var maxMove float64
		for c := range centers {
			if d := points.Dist(centers[c], next[c]); d > maxMove {
				maxMove = d
			}
		}
		centers = next
		jobs := sess.Jobs()
		jst := jobs[len(jobs)-1]
		st := IterStats{
			Iteration:    it + 1,
			Wall:         jst.Wall,
			ShuffleBytes: jst.Counters[mapreduce.CtrShuffleBytes],
			Distances:    jst.Counters[mapreduce.CtrDistanceComputations],
			MaxMove:      maxMove,
		}
		res.Iterations = append(res.Iterations, st)
		res.Wall += st.Wall
		res.ShuffleBytes += st.ShuffleBytes
		res.Distances += st.Distances
	}
	res.Dag = sess.Counters()

	res.Centers = centers
	res.Labels = make([]int, ds.N())
	for i, p := range ds.Points {
		best, bestD := 0, math.Inf(1)
		for c, ctr := range centers {
			if d := points.SqDist(p.Pos, ctr); d < bestD {
				best, bestD = c, d
			}
		}
		res.Labels[i] = best
		res.Distances += int64(cfg.K)
	}
	return res, nil
}

// initialCenters picks k distinct points deterministically (seeded
// permutation — the cheap initialization a distributed run would sample).
func initialCenters(ds *points.Dataset, k int, seed int64) []points.Vector {
	rng := points.NewRand(seed + 77)
	perm := rng.Perm(ds.N())
	centers := make([]points.Vector, k)
	for i := 0; i < k; i++ {
		centers[i] = ds.Points[perm[i]].Pos.Clone()
	}
	return centers
}

// IterateJob builds the per-iteration job from a conf carrying centroids.
// The map side decodes them once per job instance.
func IterateJob(conf mapreduce.Conf) *mapreduce.Job {
	centroids := mapreduce.ConfOnce(centroidsFromConf)
	return &mapreduce.Job{
		Name: JobIterate,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			centers, err := centroids(ctx.Conf)
			if err != nil {
				return err
			}
			return assignMap(ctx, centers, value, out)
		},
		Combine: sumPartials,
		Reduce:  recenterReduce,
	}
}

// assignMap assigns a point to its nearest centroid and emits a partial
// sum record (count=1, sum=point).
func assignMap(ctx *mapreduce.TaskContext, centers []points.Vector, value []byte, out mapreduce.Emitter) error {
	p, _, err := points.DecodePoint(value)
	if err != nil {
		return err
	}
	best, bestD := 0, math.Inf(1)
	for c, ctr := range centers {
		if d := points.SqDist(p.Pos, ctr); d < bestD {
			best, bestD = c, d
		}
	}
	ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(int64(len(centers)))
	out.Emit(strconv.Itoa(best), encodePartial(1, p.Pos))
	return nil
}

// sumPartials folds partial sums; used as combiner and inside the reducer.
func sumPartials(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
	count, sum, err := foldPartials(values)
	if err != nil {
		return err
	}
	out.Emit(key, encodePartial(count, sum))
	return nil
}

// recenterReduce emits the new centroid for one cluster.
func recenterReduce(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
	count, sum, err := foldPartials(values)
	if err != nil {
		return err
	}
	if count > 0 {
		sum.Scale(1 / float64(count))
	}
	out.Emit(key, encodePartial(count, sum))
	return nil
}

func foldPartials(values [][]byte) (int64, points.Vector, error) {
	var count int64
	var sum points.Vector
	for _, v := range values {
		c, s, err := decodePartial(v)
		if err != nil {
			return 0, nil, err
		}
		count += c
		switch {
		case sum == nil:
			sum = s.Clone()
		case len(s) != len(sum):
			return 0, nil, fmt.Errorf("kmeansmr: partials of dim %d and %d", len(sum), len(s))
		default:
			sum.Add(s)
		}
	}
	return count, sum, nil
}

// partial record: int64 count | uint32 dim | dim float64 sums.
func encodePartial(count int64, sum points.Vector) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(count))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sum)))
	for _, x := range sum {
		buf = points.AppendFloat64(buf, x)
	}
	return buf
}

func decodePartial(v []byte) (int64, points.Vector, error) {
	if len(v) < 12 {
		return 0, nil, fmt.Errorf("kmeansmr: short partial (%d bytes)", len(v))
	}
	count := int64(binary.LittleEndian.Uint64(v))
	dim := int(binary.LittleEndian.Uint32(v[8:]))
	if len(v) != 12+8*dim {
		return 0, nil, fmt.Errorf("kmeansmr: partial is %d bytes, want %d", len(v), 12+8*dim)
	}
	sum := make(points.Vector, dim)
	for j := 0; j < dim; j++ {
		sum[j] = points.DecodeFloat64(v[12+8*j:])
	}
	return count, sum, nil
}

// centroidsFromConf decodes the centroids a job's Conf ships.
func centroidsFromConf(conf mapreduce.Conf) ([]points.Vector, error) {
	cs, err := points.DecodeVectors(conf[confCentroids])
	if err != nil {
		return nil, fmt.Errorf("kmeansmr: centroids: %w", err)
	}
	return cs, nil
}

// decodeNewCentroids reads the reduce output, at most one record per
// cluster and each of the centroids' dim; clusters that received no points
// keep their previous centroid.
func decodeNewCentroids(out []mapreduce.Pair, prev []points.Vector) ([]points.Vector, error) {
	next := make([]points.Vector, len(prev))
	for i := range next {
		next[i] = prev[i]
	}
	seen := make([]bool, len(prev))
	for _, pr := range out {
		c, err := strconv.Atoi(pr.Key)
		if err != nil {
			return nil, fmt.Errorf("kmeansmr: bad cluster key %q", pr.Key)
		}
		if c < 0 || c >= len(prev) {
			return nil, fmt.Errorf("kmeansmr: cluster key %d out of range", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("kmeansmr: duplicate record for cluster %d", c)
		}
		seen[c] = true
		count, sum, err := decodePartial(pr.Value)
		if err != nil {
			return nil, err
		}
		if len(sum) != len(prev[c]) {
			return nil, fmt.Errorf("kmeansmr: cluster %d's record has dim %d, want %d", c, len(sum), len(prev[c]))
		}
		if count > 0 {
			next[c] = sum
		}
	}
	return next, nil
}
