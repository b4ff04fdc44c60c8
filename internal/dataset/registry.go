package dataset

import (
	"fmt"
	"sort"

	"repro/internal/points"
)

// Spec describes one named data set the experiment harness can request.
// PaperN and PaperDim record the original Table II size; N is the scaled
// size actually generated (scale factors are documented in DESIGN.md).
type Spec struct {
	Name     string
	N        int
	Dim      int
	PaperN   int
	PaperDim int
	Scale    int // PaperN / N (approximately)
	Gen      func(seed int64) *points.Dataset
}

// Registry returns the Table II data sets at their experiment scales,
// ordered as in the paper.
func Registry() []Spec {
	return []Spec{
		{
			Name: "Aggregation", N: 788, Dim: 2, PaperN: 788, PaperDim: 2, Scale: 1,
			Gen: func(seed int64) *points.Dataset { return Aggregation(seed) },
		},
		{
			Name: "S2", N: 5000, Dim: 2, PaperN: 5000, PaperDim: 2, Scale: 1,
			Gen: func(seed int64) *points.Dataset { return S2(seed) },
		},
		{
			Name: "Facial", N: 5587, Dim: 300, PaperN: 27936, PaperDim: 300, Scale: 5,
			Gen: func(seed int64) *points.Dataset { return Facial(5587, seed) },
		},
		{
			Name: "KDD", N: 14575, Dim: 74, PaperN: 145751, PaperDim: 74, Scale: 10,
			Gen: func(seed int64) *points.Dataset { return KDD(14575, seed) },
		},
		{
			Name: "3Dspatial", N: 21744, Dim: 4, PaperN: 434874, PaperDim: 4, Scale: 20,
			Gen: func(seed int64) *points.Dataset { return Spatial3D(21744, seed) },
		},
		{
			Name: "BigCross500K", N: 25000, Dim: 57, PaperN: 500000, PaperDim: 57, Scale: 20,
			Gen: func(seed int64) *points.Dataset { return BigCross(25000, seed) },
		},
		{
			Name: "BigCross", N: 116203, Dim: 57, PaperN: 11620300, PaperDim: 57, Scale: 100,
			Gen: func(seed int64) *points.Dataset { return BigCross(116203, seed) },
		},
	}
}

// Get returns the spec with the given name.
func Get(name string) (Spec, error) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range Registry() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return Spec{}, fmt.Errorf("dataset: unknown data set %q (have %v)", name, names)
}
