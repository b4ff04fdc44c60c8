package points_test

import (
	"fmt"

	"repro/internal/points"
)

// The binary codec is what MapReduce jobs shuffle.
func ExampleEncodePoint() {
	p := points.Point{ID: 7, Pos: points.Vector{1.5, -2.0}}
	buf := points.EncodePoint(p)
	back, _, err := points.DecodePoint(buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d bytes on the wire; id=%d pos=%v\n", len(buf), back.ID, back.Pos)
	// Output:
	// 18 bytes on the wire; id=7 pos=(1.5,-2)
}

// d_c via the DP paper's percentile rule of thumb.
func ExamplePercentileDistance() {
	ds := points.FromVectors("line", []points.Vector{{0}, {1}, {2}, {3}})
	fmt.Println("median pair distance:", points.PercentileDistance(ds, 0.5, 1000, 1))
	// Output:
	// median pair distance: 1
}
