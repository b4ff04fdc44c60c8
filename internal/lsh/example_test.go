package lsh_test

import (
	"fmt"

	"repro/internal/lsh"
	"repro/internal/points"
)

// Solving Eq. 5: the minimal hash width for a target expected accuracy.
func ExampleSolveWidth() {
	dc := 1.5
	w, err := lsh.SolveWidth(0.99, dc, 3, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("w/dc = %.2f\n", w/dc)
	fmt.Printf("accuracy at w: %.4f\n", lsh.ExpectedAccuracy(w, dc, 3, 10))
	// Output:
	// w/dc = 5.64
	// accuracy at w: 0.9900
}

// Partitioning a point under M independent LSH layouts.
func ExampleLayouts_Keys() {
	layouts := lsh.NewLayouts(2, 3, 2, 4.0, 42)
	keys := layouts.Keys(points.Vector{1.0, 2.0})
	fmt.Println(len(keys), "partition keys, one per layout")
	// Nearby points usually share keys; distant ones don't.
	same := 0
	near := layouts.Keys(points.Vector{1.05, 2.05})
	for m := range keys {
		if keys[m] == near[m] {
			same++
		}
	}
	fmt.Printf("nearby point shares %d/3 keys\n", same)
	// Output:
	// 3 partition keys, one per layout
	// nearby point shares 3/3 keys
}
