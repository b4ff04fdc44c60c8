package decision_test

import (
	"fmt"
	"math"

	"repro/internal/decision"
	"repro/internal/points"
)

// The full centralized step: NewGraph rectifies ∞ δ̂, then pick peaks and
// assign clusters.
func ExampleGraph_Assign() {
	// A hand-built graph: two density mountains (peaks at 0 and 3).
	ds := points.FromVectors("demo", []points.Vector{{0}, {1}, {2}, {10}, {11}})
	g, err := decision.NewGraph(
		[]float64{5, 4, 3, 5, 4},            // rho (0 and 3 tie; ID order breaks it)
		[]float64{11, 1, 1, math.Inf(1), 1}, // delta; 3 looked like a local peak
		[]int32{-1, 0, 1, -1, 3},            // upslope chain
	)
	if err != nil {
		panic(err)
	}
	peaks := g.SelectTopK(2)
	labels, err := g.Assign(ds, peaks)
	if err != nil {
		panic(err)
	}
	fmt.Println("peaks: ", peaks)
	fmt.Println("labels:", labels)
	// Output:
	// peaks:  [0 3]
	// labels: [0 0 0 1 1]
}

// Automatic cluster-count suggestion from the γ spectrum.
func ExampleGraph_SuggestK() {
	rho := make([]float64, 50)
	delta := make([]float64, 50)
	up := make([]int32, 50)
	for i := range rho {
		rho[i], delta[i], up[i] = 1, 0.5, int32((i+49)%50)
	}
	for _, p := range []int{3, 17, 41} { // three outliers
		rho[p], delta[p], up[p] = 20, 15, -1
	}
	g, _ := decision.NewGraph(rho, delta, up)
	fmt.Println("suggested k:", g.SuggestK(10))
	// Output:
	// suggested k: 3
}
