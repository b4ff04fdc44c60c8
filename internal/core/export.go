package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/points"
)

// ExportModel freezes a finished clustering into a serving artifact: the
// labeled dataset in SoA form, per-point densities, peaks, halo border
// densities, and the run's d_c and LSH parameters (taken from res.Stats,
// which RunLSHDDP fills; a Basic-DDP or exact result exports with M = 0 and
// serves through the exact-scan path only). border may be nil when halo
// detection was skipped — the model then flags no point as halo. seed must
// be the Config.Seed of the training run, so the server regenerates the
// exact hash layouts the ρ̂/δ̂ jobs partitioned under.
func ExportModel(ds *points.Dataset, res *Result, peaks, labels []int32, border []float64, seed int64) (*model.Model, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := ds.N()
	if len(labels) != n {
		return nil, fmt.Errorf("core: export needs %d labels, have %d", n, len(labels))
	}
	if len(res.Rho) != n {
		return nil, fmt.Errorf("core: export needs %d densities, have %d", n, len(res.Rho))
	}
	if len(peaks) == 0 {
		return nil, fmt.Errorf("core: export needs at least one peak")
	}
	if border == nil {
		border = make([]float64, len(peaks))
	}
	if len(border) != len(peaks) {
		return nil, fmt.Errorf("core: export has %d border densities for %d peaks", len(border), len(peaks))
	}
	dim := ds.Dim()
	data := make([]float64, 0, n*dim)
	for _, p := range ds.Points {
		data = append(data, p.Pos...)
	}
	m := &model.Model{
		Name: ds.Name,
		Dim:  dim,
		Dc:   res.Stats.Dc,
		LSH: model.Params{
			Seed: seed,
			M:    res.Stats.M,
			Pi:   res.Stats.Pi,
			W:    res.Stats.W,
		},
		Data:   data,
		Rho:    append([]float64(nil), res.Rho...),
		Labels: append([]int32(nil), labels...),
		Peaks:  append([]int32(nil), peaks...),
		Border: append([]float64(nil), border...),
	}
	// Ship the q8 codes alongside the float64 data so a q8 server need not
	// re-derive them at load time. An eighth of the data's size buys the
	// bandwidth-lean scan path; old readers skip the extra sections.
	m.BuildCompact()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
