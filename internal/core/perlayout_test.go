package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// The per-layout reducers LSH-DDP ran before pair ownership: every
// partition of every layout evaluates all of its pairs, each layout emits
// one ρ̂ᵐ and one δ̂ᵐ per point, and the aggregations fold M records per
// point. They are the definition the pair-once reducers must reproduce —
// kept here, in test code only, as the differential oracle.

const (
	jobPerLayoutRho    = "test-per-layout-rho"
	jobPerLayoutRhoAgg = "test-per-layout-rho-agg"
	jobPerLayoutDel    = "test-per-layout-delta"
)

// perLayoutFactories registers the oracle jobs for rpcmr workers.
func perLayoutFactories() map[string]func(mapreduce.Conf) *mapreduce.Job {
	return map[string]func(mapreduce.Conf) *mapreduce.Job{
		jobPerLayoutRho:    perLayoutRhoJob,
		jobPerLayoutRhoAgg: perLayoutRhoAggJob,
		jobPerLayoutDel:    perLayoutDeltaJob,
	}
}

func perLayoutRhoJob(conf mapreduce.Conf) *mapreduce.Job {
	job := LSHRhoJob(conf) // the map side is unchanged
	job.Name = jobPerLayoutRho
	job.Reduce = func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
		dc := ctx.Conf.GetFloat(confDc, 0)
		kern := kernels.Kernel{Dc2: dc * dc}
		m := points.GetMatrix()
		defer points.PutMatrix(m)
		if err := points.DecodePointsInto(m, values); err != nil {
			return err
		}
		rho := make([]float64, m.N())
		ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.RhoAccumulate(m, 0, m.N(), kern, rho))
		for i := 0; i < m.N(); i++ {
			out.Emit(mapreduce.IDKey(m.ID(i)), points.EncodeRhoValue(points.RhoValue{Rho: rho[i]}))
		}
		return nil
	}
	return job
}

func perLayoutRhoAggJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: jobPerLayoutRhoAgg,
		Conf: conf,
		Map:  identityMap,
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			id, err := mapreduce.ParseIDKey(key)
			if err != nil {
				return err
			}
			var maxV float64
			for _, v := range values {
				rv, err := points.DecodeRhoValue(v, id)
				if err != nil {
					return err
				}
				maxV = max(maxV, rv.Rho)
			}
			out.Emit(key, points.EncodeRhoValue(points.RhoValue{Rho: maxV}))
			return nil
		},
	}
}

func perLayoutDeltaJob(conf mapreduce.Conf) *mapreduce.Job {
	job := LSHDeltaJob(conf)
	job.Name = jobPerLayoutDel
	job.Reduce = func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
		m := points.GetMatrix()
		defer points.PutMatrix(m)
		if err := points.DecodeRhoPointsInto(m, values); err != nil {
			return err
		}
		acc := kernels.NewDeltaAcc(m.N(), false)
		ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.DeltaArgmin(m, 0, m.N(), acc))
		for i := 0; i < m.N(); i++ {
			dv := points.DeltaValue{Delta: math.Inf(1), Upslope: -1}
			if acc.Up[i] >= 0 {
				dv.Delta = math.Sqrt(acc.Best2[i])
				dv.Upslope = m.ID(int(acc.Up[i]))
			}
			out.Emit(mapreduce.IDKey(m.ID(i)), points.EncodeDeltaValue(dv))
		}
		return nil
	}
	return job
}

// lshConf is the job configuration RunLSHDDP builds for cfg at a pinned d_c
// and width.
func lshConf(ds *points.Dataset, cfg LSHConfig) mapreduce.Conf {
	cfg = filled(cfg)
	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, cfg.Dc)
	conf.SetInt(confDim, ds.Dim())
	conf.SetInt(confM, cfg.M)
	conf.SetInt(confPi, cfg.Pi)
	conf.SetFloat(confW, cfg.W)
	conf.SetInt64(confSeed, cfg.Seed)
	return conf
}

// runPerLayout runs the oracle pipeline for cfg (Dc and W pinned) on eng and
// returns its arrays and the pair work of its two partitioned jobs.
func runPerLayout(t *testing.T, eng mapreduce.Engine, ds *points.Dataset, cfg LSHConfig) (*Result, int64) {
	t.Helper()
	ctx := context.Background()
	conf := lshConf(ds, cfg)
	var dist int64
	run := func(job *mapreduce.Job, in []mapreduce.Pair) []mapreduce.Pair {
		res, err := eng.Run(ctx, job, in)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		dist += res.Counters.Get(mapreduce.CtrDistanceComputations)
		return res.Output
	}
	partials := run(perLayoutRhoJob(conf.Clone()), InputPairs(ds))
	rho, err := DecodeRhoArray(run(perLayoutRhoAggJob(conf.Clone()), partials), ds.N())
	if err != nil {
		t.Fatal(err)
	}
	dPartials := run(perLayoutDeltaJob(conf.Clone()), RhoPointPairs(ds, rho))
	delta, upslope, err := DecodeDeltaArrays(run(DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}), dPartials), ds.N())
	if err != nil {
		t.Fatal(err)
	}
	return &Result{Rho: rho, Delta: delta, Upslope: upslope}, dist
}
