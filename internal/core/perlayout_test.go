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
		kern := kernelFromConf(ctx.Conf)
		m := points.GetMatrix()
		defer points.PutMatrix(m)
		if err := points.DecodePointsInto(m, values); err != nil {
			return err
		}
		rho := make([]float64, m.N())
		ctx.Counters.Add(mapreduce.CtrDistanceComputations, kernels.RhoAccumulate(m, 0, m.N(), kern, rho))
		for i := 0; i < m.N(); i++ {
			id := m.ID(i)
			out.Emit(idKey(id), points.EncodeRhoValue(points.RhoValue{ID: id, Rho: rho[i]}))
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
			mean := ctx.Conf.GetBool(confAggMean, false)
			var id int32
			var maxV, sum float64
			for i, v := range values {
				rv, err := points.DecodeRhoValue(v)
				if err != nil {
					return err
				}
				if i == 0 {
					id = rv.ID
				}
				if rv.Rho > maxV {
					maxV = rv.Rho
				}
				sum += rv.Rho
			}
			agg := maxV
			if mean {
				agg = sum / float64(len(values))
			}
			out.Emit(key, points.EncodeRhoValue(points.RhoValue{ID: id, Rho: agg}))
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
			id := m.ID(i)
			dv := points.DeltaValue{ID: id, Delta: math.Inf(1), Upslope: -1}
			if acc.Up[i] >= 0 {
				dv.Delta = math.Sqrt(acc.Best2[i])
				dv.Upslope = m.ID(int(acc.Up[i]))
			}
			out.Emit(idKey(id), points.EncodeDeltaValue(dv))
		}
		return nil
	}
	return job
}

// lshConf is the job configuration RunLSHDDP builds for cfg at a pinned d_c
// and width.
func lshConf(ds *points.Dataset, cfg LSHConfig) mapreduce.Conf {
	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, cfg.Dc)
	conf.SetInt(confDim, ds.Dim())
	conf.SetInt(confM, cfg.m())
	conf.SetInt(confPi, cfg.pi())
	conf.SetFloat(confW, cfg.W)
	conf.SetInt64(confSeed, cfg.Seed)
	conf.SetBool(confAggMean, cfg.AggregateMean)
	setKernelConf(conf, cfg.Kernel)
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
		res, err := eng.Run(ctx, job.WithReduces(cfg.NumReduces), in)
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
