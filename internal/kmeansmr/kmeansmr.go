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
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
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
	// MaxIter bounds the iterations (default 100, the paper's setting).
	MaxIter int
	// Tol stops early when no centroid moves more than Tol (0 disables
	// early stopping, matching the paper's fixed 100 iterations).
	Tol float64
	// Seed drives the k-means++ style initialization.
	Seed int64
	// NumReduces is the reduce-task count; <=0 lets the engine decide.
	NumReduces int
	// Log, when non-nil, receives one line per iteration.
	Log func(format string, args ...interface{})
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
	// Dag holds the run's dag.* scheduler counters. In particular
	// dag.stage.bytes records the input volume staged ONCE for the whole
	// run — the regression signal that iterations no longer re-stage the
	// dataset each round.
	Dag map[string]int64
}

// Run executes distributed K-means. The input is staged on the DAG
// session once and every Lloyd iteration is scheduled as a one-node graph
// over the same staged dataset — 100 iterations stage the points one
// time, not 100 times. Labels are computed from the final centroids in a
// last pass (counted in Distances but not as an iteration).
func Run(ctx context.Context, ds *points.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.K <= 0 || cfg.K > ds.N() {
		return nil, fmt.Errorf("kmeansmr: k=%d out of range for %d points", cfg.K, ds.N())
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	eng := cfg.Engine
	if eng == nil {
		eng = &mapreduce.LocalEngine{}
	}
	sess := dag.NewSession(eng, dag.Options{Log: cfg.Log})
	input := sess.Stage("kmeans-points", core.InputPairs(ds))
	centers := initialCenters(ds, cfg.K, cfg.Seed)
	res := &Result{}

	for it := 0; it < maxIter; it++ {
		conf := mapreduce.Conf{}
		conf.SetInt(confK, cfg.K)
		conf[confCentroids] = encodeCentroids(centers)
		g := dag.NewGraph(fmt.Sprintf("kmeans-iter-%03d", it+1))
		node := g.Job(IterateJob(conf).WithReduces(cfg.NumReduces), input)
		outs, err := sess.Run(ctx, g, node)
		if err != nil {
			return nil, fmt.Errorf("kmeansmr: iteration %d: %w", it, err)
		}
		next, err := decodeNewCentroids(outs[0], centers)
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
		if cfg.Log != nil {
			cfg.Log("kmeans iter %3d  %8.3fs  maxMove=%.6g", st.Iteration, st.Wall.Seconds(), maxMove)
		}
		if cfg.Tol > 0 && maxMove <= cfg.Tol {
			break
		}
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
func IterateJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name:    JobIterate,
		Conf:    conf,
		Map:     assignMap,
		Combine: sumPartials,
		Reduce:  recenterReduce,
	}
}

// assignMap assigns a point to its nearest centroid and emits a partial
// sum record (count=1, sum=point).
func assignMap(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
	centers, err := centroidsFromConf(ctx.Conf)
	if err != nil {
		return err
	}
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
		if sum == nil {
			sum = s.Clone()
		} else {
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

// encodeCentroids ships centroids through the Conf.
func encodeCentroids(cs []points.Vector) string {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cs)))
	for i, c := range cs {
		buf = points.AppendPoint(buf, points.Point{ID: int32(i), Pos: c})
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func centroidsFromConf(conf mapreduce.Conf) ([]points.Vector, error) {
	raw, err := base64.StdEncoding.DecodeString(conf[confCentroids])
	if err != nil {
		return nil, fmt.Errorf("kmeansmr: bad centroid encoding: %w", err)
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("kmeansmr: short centroid blob")
	}
	k := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	cs := make([]points.Vector, k)
	for i := 0; i < k; i++ {
		p, rest, err := points.DecodePoint(raw)
		if err != nil {
			return nil, err
		}
		cs[i] = p.Pos
		raw = rest
	}
	return cs, nil
}

// decodeNewCentroids reads the reduce output; clusters that received no
// points keep their previous centroid.
func decodeNewCentroids(out []mapreduce.Pair, prev []points.Vector) ([]points.Vector, error) {
	next := make([]points.Vector, len(prev))
	for i := range next {
		next[i] = prev[i]
	}
	for _, pr := range out {
		c, err := strconv.Atoi(pr.Key)
		if err != nil {
			return nil, fmt.Errorf("kmeansmr: bad cluster key %q", pr.Key)
		}
		if c < 0 || c >= len(prev) {
			return nil, fmt.Errorf("kmeansmr: cluster key %d out of range", c)
		}
		count, sum, err := decodePartial(pr.Value)
		if err != nil {
			return nil, err
		}
		if count > 0 {
			next[c] = sum
		}
	}
	return next, nil
}
