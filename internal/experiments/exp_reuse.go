package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/mapreduce"
	"repro/internal/points"
)

// Section III's design discussion: after the ρ job, should Basic-DDP store
// the pairwise distance matrix and reuse it for δ, or recompute distances?
// The paper chooses recomputation ("the matrix can be very large and it can
// incur significant I/O cost"). ablateDistanceReuse builds the road not
// taken — a ρ job that also materializes distance records, and a δ job
// that consumes them instead of recomputing — and measures the trade:
// distance computations halve, shuffled/stored bytes explode quadratically.
//
// The reuse δ job needs every point's ρ next to every distance record; the
// driver joins ρ in (the role HDFS-side joins play in a real pipeline).
func ablateDistanceReuse(opt *Options, r *Report) error {
	ds, err := opt.load("3Dspatial")
	if err != nil {
		return err
	}
	if ds.N() > 3000 {
		ds.Points = ds.Points[:3000]
	}
	ds.Labels = nil
	eng := opt.engine()
	dc := dp.CutoffByPercentile(ds, 0.02, opt.Seed)

	// Paper's choice: recompute. Run standard Basic-DDP.
	recompute, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{
		Config:    core.Config{Engine: eng, Dc: dc},
		BlockSize: 300,
	})
	if err != nil {
		return err
	}

	// Road not taken: ρ job that ALSO emits each evaluated pair's distance,
	// then a δ job over the stored records.
	var reuseDist int64
	run := func(job *mapreduce.Job, in []mapreduce.Pair) ([]mapreduce.Pair, error) {
		res, err := eng.Run(context.Background(), job, in)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
		reuseDist += res.Counters.Get(mapreduce.CtrDistanceComputations)
		return res.Output, nil
	}
	nBlocks := (ds.N() + 299) / 300
	matOut, err := run(rhoAndMatrixJob(dc, nBlocks), core.InputPairs(ds))
	if err != nil {
		return err
	}
	// Separate ρ partials (key "r...") from distance records (key "d...").
	var rhoPartials, distRecords []mapreduce.Pair
	for _, p := range matOut {
		if p.Key[0] == 'r' {
			rhoPartials = append(rhoPartials, mapreduce.Pair{Key: p.Key[1:], Value: p.Value})
		} else {
			distRecords = append(distRecords, p)
		}
	}
	rhoOut, err := run(core.RhoAggJob("reuse-rho-agg", mapreduce.Conf{}), rhoPartials)
	if err != nil {
		return err
	}
	rho, err := core.DecodeRhoArray(rhoOut, ds.N())
	if err != nil {
		return err
	}
	// δ from stored distances: driver joins ρ into each record.
	dIn := make([]mapreduce.Pair, len(distRecords))
	for i, p := range distRecords {
		rec, err := decodeDistRecord(p.Value)
		if err != nil {
			return err
		}
		dIn[i] = mapreduce.Pair{Value: encodeDistRecordRho(rec, rho[rec.i], rho[rec.j])}
	}
	dPartials, err := run(deltaFromMatrixJob(), dIn)
	if err != nil {
		return err
	}
	dOut, err := run(core.DeltaAggJob("reuse-delta-agg", mapreduce.Conf{}), dPartials)
	if err != nil {
		return err
	}
	delta, _, err := core.DecodeDeltaArrays(dOut, ds.N())
	if err != nil {
		return err
	}

	// Verify the reuse path computes identical science.
	exact, err := dp.Compute(ds, dc, dp.Options{})
	if err != nil {
		return err
	}
	for i := range exact.Rho {
		if rho[i] != exact.Rho[i] || math.Abs(delta[i]-exact.Delta[i]) > 1e-9 {
			return fmt.Errorf("reuse ablation diverged at point %d", i)
		}
	}

	// The reuse path's real price is the materialized matrix: N(N+1)/2
	// records that must live on the distributed file system between jobs
	// (the "significant I/O cost" Section III cites for rejecting reuse).
	var storedBytes int64
	for _, p := range distRecords {
		storedBytes += int64(len(p.Key) + len(p.Value))
	}
	r.AddRow("distance-reuse", "recompute (paper, Section III)", "stored matrix / dist",
		fmt.Sprintf("0MB / %s", fcount(recompute.Stats.DistanceComputations)))
	r.AddRow("distance-reuse", "store+reuse matrix", "stored matrix / dist",
		fmt.Sprintf("%s / %s", fmb(storedBytes), fcount(reuseDist)))
	if reuseDist >= recompute.Stats.DistanceComputations {
		r.Notes = append(r.Notes, "UNEXPECTED: reuse did not halve distance work")
	}
	return nil
}

// distance record: int32 i | int32 j | float64 d (+ two ρ for the δ job).
type distRecord struct {
	i, j int32
	d    float64
}

func encodeDistRecord(rec distRecord) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(rec.i))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.j))
	return points.AppendFloat64(buf, rec.d)
}

func decodeDistRecord(v []byte) (distRecord, error) {
	if len(v) < 16 {
		return distRecord{}, fmt.Errorf("short distance record")
	}
	return distRecord{
		i: int32(binary.LittleEndian.Uint32(v)),
		j: int32(binary.LittleEndian.Uint32(v[4:])),
		d: points.DecodeFloat64(v[8:]),
	}, nil
}

func encodeDistRecordRho(rec distRecord, rhoI, rhoJ float64) []byte {
	buf := encodeDistRecord(rec)
	buf = points.AppendFloat64(buf, rhoI)
	return points.AppendFloat64(buf, rhoJ)
}

func decodeDistRecordRho(v []byte) (distRecord, float64, float64, error) {
	rec, err := decodeDistRecord(v)
	if err != nil || len(v) != 32 {
		return distRecord{}, 0, 0, fmt.Errorf("short joined distance record")
	}
	return rec,
		points.DecodeFloat64(v[16:]),
		points.DecodeFloat64(v[24:]),
		nil
}

// rhoAndMatrixJob is Basic-DDP's blocked ρ job, additionally emitting one
// distance record per evaluated pair ("the distance matrix").
func rhoAndMatrixJob(dc float64, nBlocks int) *mapreduce.Job {
	conf := mapreduce.Conf{}
	conf.SetFloat("dc", dc)
	conf.SetInt("blocks", nBlocks)
	return &mapreduce.Job{
		Name: "reuse-rho-matrix",
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			n := ctx.Conf.GetInt("blocks", 1)
			p, _, err := points.DecodePoint(value)
			if err != nil {
				return err
			}
			k := int(p.ID) % n
			for l := k; l < n; l++ {
				out.Emit("b"+strconv.Itoa(l), append(binary.LittleEndian.AppendUint32(nil, uint32(k)), value...))
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
			l, err := strconv.Atoi(key[1:])
			if err != nil {
				return err
			}
			dc := ctx.Conf.GetFloat("dc", 0)
			dc2 := dc * dc
			var local, visitors []points.Point
			for _, v := range values {
				k := int(binary.LittleEndian.Uint32(v))
				p, _, err := points.DecodePoint(v[4:])
				if err != nil {
					return err
				}
				if k == l {
					local = append(local, p)
				} else {
					visitors = append(visitors, p)
				}
			}
			rho := map[int32]float64{}
			var nd int64
			emitPair := func(a, b points.Point) {
				d2 := points.SqDist(a.Pos, b.Pos)
				nd++
				if d2 < dc2 {
					rho[a.ID]++
					rho[b.ID]++
				}
				out.Emit("d", encodeDistRecord(distRecord{i: a.ID, j: b.ID, d: math.Sqrt(d2)}))
			}
			for i := range local {
				for j := i + 1; j < len(local); j++ {
					emitPair(local[i], local[j])
				}
				for v := range visitors {
					emitPair(local[i], visitors[v])
				}
			}
			ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
			for _, p := range local {
				out.Emit("r"+fmt.Sprintf("%09d", p.ID),
					points.EncodeRhoValue(points.RhoValue{ID: p.ID, Rho: rho[p.ID]}))
			}
			for _, p := range visitors {
				if rho[p.ID] > 0 {
					out.Emit("r"+fmt.Sprintf("%09d", p.ID),
						points.EncodeRhoValue(points.RhoValue{ID: p.ID, Rho: rho[p.ID]}))
				}
			}
			return nil
		},
	}
}

// deltaFromMatrixJob computes δ candidates from ρ-joined distance records:
// each record contributes a candidate to whichever endpoint is less dense,
// and a fallback max-distance record to both (for the absolute peak).
func deltaFromMatrixJob() *mapreduce.Job {
	return &mapreduce.Job{
		Name: "reuse-delta",
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			rec, rhoI, rhoJ, err := decodeDistRecordRho(value)
			if err != nil {
				return err
			}
			// Candidate for the sparser endpoint; fallback for both.
			if dp.DenserVals(rhoJ, rhoI, rec.j, rec.i) {
				out.Emit(fmt.Sprintf("%09d", rec.i),
					points.EncodeDeltaValue(points.DeltaValue{ID: rec.i, Delta: rec.d, Upslope: rec.j}))
				out.Emit(fmt.Sprintf("%09d", rec.j),
					points.EncodeDeltaValue(points.DeltaValue{ID: rec.j, Delta: rec.d, Upslope: -1}))
			} else {
				out.Emit(fmt.Sprintf("%09d", rec.j),
					points.EncodeDeltaValue(points.DeltaValue{ID: rec.j, Delta: rec.d, Upslope: rec.i}))
				out.Emit(fmt.Sprintf("%09d", rec.i),
					points.EncodeDeltaValue(points.DeltaValue{ID: rec.i, Delta: rec.d, Upslope: -1}))
			}
			return nil
		},
		Combine: combineDeltaFold,
		Reduce:  combineDeltaFold,
	}
}

// combineDeltaFold is DeltaAggJob's fold inlined for the reuse job.
func combineDeltaFold(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
	job := core.DeltaAggJob("fold", mapreduce.Conf{})
	return job.Reduce(ctx, key, values, out)
}
