// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (wrapping internal/experiments at a
// reduced scale so `go test -bench=.` completes in minutes), plus
// micro-benchmarks of the substrates the pipelines are built from.
//
// Regenerate the full-scale evaluation with cmd/dpbench instead:
//
//	go run ./cmd/dpbench -exp all
package repro

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/eddpc"
	"repro/internal/experiments"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/points"
)

func init() {
	rpcmr.RegisterJobs(core.JobFactories())
	rpcmr.RegisterJobs(core.HaloJobFactories())
}

// benchOpt is the reduced experiment scale for benchmarks.
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 8, Seed: 42}
}

// benchExperiment runs one experiment per iteration and logs its report
// once (with -v).
func benchExperiment(b *testing.B, run func(experiments.Options) (*experiments.Report, error)) {
	b.Helper()
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		r, err := run(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.Log("\n" + last.String())
	}
}

// ---- One benchmark per table/figure ----

func BenchmarkTable2Datasets(b *testing.B) { benchExperiment(b, experiments.ExpTable2) }

func BenchmarkFig7DecisionGraph(b *testing.B) { benchExperiment(b, experiments.ExpFig7) }

func BenchmarkFig8Quality(b *testing.B) { benchExperiment(b, experiments.ExpFig8) }

func BenchmarkFig9Accuracy(b *testing.B) { benchExperiment(b, experiments.ExpFig9) }

func BenchmarkFig10Runtime(b *testing.B) { benchExperiment(b, experiments.ExpFig10) }

func BenchmarkTable4EDDPC(b *testing.B) { benchExperiment(b, experiments.ExpTable4) }

func BenchmarkFig11KMeans(b *testing.B) { benchExperiment(b, experiments.ExpFig11) }

func BenchmarkFig12Params(b *testing.B) { benchExperiment(b, experiments.ExpFig12) }

func BenchmarkEC2Extrapolation(b *testing.B) { benchExperiment(b, experiments.ExpEC2) }

func BenchmarkAblations(b *testing.B) { benchExperiment(b, experiments.ExpAblation) }

// ---- Algorithm benchmarks with cost metrics ----

// benchAlgo reports the paper's cost counters as benchmark metrics.
func reportStats(b *testing.B, st *core.Stats) {
	b.ReportMetric(float64(st.ShuffleBytes)/(1<<20), "shuffleMB")
	b.ReportMetric(float64(st.DistanceComputations), "dist")
}

func benchDataset(n int) *points.Dataset { return dataset.BigCross(n, 42) }

func BenchmarkBasicDDP(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDataset(n)
			var st core.Stats
			for i := 0; i < b.N; i++ {
				res, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{
					Config: core.Config{Seed: 1, DcPercentile: 0.02},
				})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			reportStats(b, &st)
		})
	}
}

func BenchmarkLSHDDP(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDataset(n)
			var st core.Stats
			for i := 0; i < b.N; i++ {
				res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
					Config:   core.Config{Seed: 1, DcPercentile: 0.02},
					Accuracy: 0.99, M: 10, Pi: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			reportStats(b, &st)
		})
	}
}

func BenchmarkEDDPC(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDataset(n)
			var st core.Stats
			for i := 0; i < b.N; i++ {
				res, err := eddpc.Run(context.Background(), ds, eddpc.Config{
					Config: core.Config{Seed: 1, DcPercentile: 0.02},
				})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			reportStats(b, &st)
		})
	}
}

func BenchmarkExactSequentialDP(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDataset(n)
			dc := dp.CutoffByPercentile(ds, 0.02, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dp.Compute(ds, dc, dp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Substrate micro-benchmarks ----

func BenchmarkSqDist(b *testing.B) {
	for _, dim := range []int{2, 57, 300} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			rng := points.NewRand(1)
			x := make(points.Vector, dim)
			y := make(points.Vector, dim)
			for i := range x {
				x[i], y[i] = rng.Float64(), rng.Float64()
			}
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += points.SqDist(x, y)
			}
			_ = sink
		})
	}
}

func BenchmarkLSHGroupKey(b *testing.B) {
	for _, pi := range []int{3, 10} {
		b.Run(fmt.Sprintf("pi=%d", pi), func(b *testing.B) {
			rng := points.NewRand(1)
			l := lsh.NewLayouts(57, 1, pi, 4.0, 1)
			p := make(points.Vector, 57)
			for i := range p {
				p[i] = rng.Float64() * 100
			}
			var kb lsh.KeyBuf
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Hash(&kb, p)
			}
		})
	}
}

func BenchmarkPointCodec(b *testing.B) {
	p := points.Point{ID: 7, Pos: make(points.Vector, 57)}
	for i := range p.Pos {
		p.Pos[i] = float64(i) * 1.5
	}
	buf := points.EncodePoint(p)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = points.AppendPoint(buf[:0], p)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := points.DecodePoint(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMapReduceWordcount(b *testing.B) {
	input := make([]mapreduce.Pair, 2000)
	for i := range input {
		input[i] = mapreduce.Pair{Value: []byte(fmt.Sprintf("w%d x%d y%d z%d", i%7, i%13, i%29, i%97))}
	}
	job := &mapreduce.Job{
		Name: "bench-wordcount",
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				out.Emit(w, []byte("1"))
			}
			return nil
		},
		Combine: benchSum,
		Reduce:  benchSum,
	}
	eng := &mapreduce.LocalEngine{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), job, input); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSum(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	out.Emit(key, []byte(strconv.Itoa(total)))
	return nil
}

func BenchmarkShuffleSpill(b *testing.B) {
	// The same job with and without spill-to-disk, to price the external
	// sort.
	input := make([]mapreduce.Pair, 5000)
	for i := range input {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i % 64), Value: make([]byte, 128)}
	}
	job := &mapreduce.Job{
		Name: "bench-spill",
		Map: func(_ *mapreduce.TaskContext, key string, value []byte, out mapreduce.Emitter) error {
			out.Emit(key, value)
			return nil
		},
		Reduce: func(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			out.Emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
	b.Run("in-memory", func(b *testing.B) {
		eng := &mapreduce.LocalEngine{}
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), job, input); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spill-64k", func(b *testing.B) {
		eng := &mapreduce.LocalEngine{SpillThresholdBytes: 64 << 10}
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), job, input); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWidthSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lsh.SolveWidth(0.99, 1.5, 3, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extension benchmarks ----

func BenchmarkGaussianKernelLSHDDP(b *testing.B) {
	ds := benchDataset(2000)
	var st core.Stats
	for i := 0; i < b.N; i++ {
		res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
			Config:   core.Config{Seed: 1, DcPercentile: 0.02, Kernel: dp.KernelGaussian},
			Accuracy: 0.99, M: 10, Pi: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		st = res.Stats
	}
	reportStats(b, &st)
}

func BenchmarkLSHHalo(b *testing.B) {
	ds := benchDataset(2000)
	cfg := core.LSHConfig{
		Config:   core.Config{Seed: 1, DcPercentile: 0.02},
		Accuracy: 0.99, M: 10, Pi: 3,
	}
	res, err := core.RunLSHDDP(context.Background(), ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, labels, err := res.Cluster(ds, core.SelectTopK(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunLSHHalo(context.Background(), ds, res.Rho, labels, res.Stats.Dc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedEngine prices the TCP cluster against the in-process
// engine on the same job (cluster boot excluded from the timer).
func BenchmarkDistributedEngine(b *testing.B) {
	master, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer master.Close()
	var workers []*rpcmr.Worker
	for i := 0; i < 2; i++ {
		w, err := rpcmr.StartWorker(master.Addr(), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	ds := benchDataset(1000)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)
	run := func(b *testing.B, eng mapreduce.Engine) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
				Config: core.Config{Engine: eng, Dc: dc, Seed: 1},
				M:      5, Pi: 3, Accuracy: 0.95,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("local", func(b *testing.B) { run(b, &mapreduce.LocalEngine{Parallelism: 2}) })
	b.Run("rpc-cluster", func(b *testing.B) { run(b, master) })
}
