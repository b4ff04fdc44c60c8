// Decision-graph exploration: the user-facing feature that distinguishes
// DP from other clustering algorithms. This example reproduces the Figure 7
// story on the S2 data set: it renders the exact (Basic-DDP) decision graph
// and the approximate (LSH-DDP) one side by side, shows where LSH-DDP's
// infinite-δ local peaks land after rectification, and demonstrates how the
// clustering responds to different selection boxes.
//
// Run with:
//
//	go run ./examples/decisiongraph
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	ds := dataset.S2(42)
	fmt.Printf("S2: %d points, 15 generated clusters\n\n", ds.N())

	basic, err := core.RunBasicDDP(context.Background(), ds, core.BasicConfig{
		Config: core.Config{Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	lshRes, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
		Config:   core.Config{Seed: 1, Dc: basic.Stats.Dc},
		Accuracy: 0.99, M: 10, Pi: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	infs := 0
	for _, d := range lshRes.Delta {
		if math.IsInf(d, 1) {
			infs++
		}
	}

	bg, err := basic.Graph()
	if err != nil {
		log.Fatal(err)
	}
	bg.Rectify()
	lg, err := lshRes.Graph()
	if err != nil {
		log.Fatal(err)
	}
	lg.Rectify()

	bPeaks := bg.SelectTopK(15)
	lPeaks := lg.SelectTopK(15)

	fmt.Printf("Basic-DDP (exact) decision graph, top-15 peaks marked P:\n")
	fmt.Print(bg.Render(90, 22, bPeaks))
	fmt.Printf("\nLSH-DDP (approximate) decision graph — %d points had infinite delta\n", infs)
	fmt.Printf("(local absolute peaks), rectified to the max finite delta:\n")
	fmt.Print(lg.Render(90, 22, lPeaks))

	// Peak sensitivity: how the cluster count responds to the selection
	// box, on both graphs. The flat plateau around the true k=15 is what
	// makes peak selection easy for a human.
	fmt.Printf("\nselection-box sensitivity (delta threshold sweep, rho > 5):\n")
	fmt.Printf("%-12s %-10s %-10s\n", "delta-min", "basic", "lsh")
	maxDelta := 0.0
	for _, d := range bg.Delta {
		if d > maxDelta {
			maxDelta = d
		}
	}
	for _, frac := range []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60} {
		dmin := maxDelta * frac
		fmt.Printf("%-12.4g %-10d %-10d\n", dmin, len(bg.SelectBox(5, dmin)), len(lg.SelectBox(5, dmin)))
	}

	// Agreement of the two clusterings at k=15.
	bl, err := bg.Assign(ds, bPeaks)
	if err != nil {
		log.Fatal(err)
	}
	ll, err := lg.Assign(ds, lPeaks)
	if err != nil {
		log.Fatal(err)
	}
	agree, total := 0, 0
	for i := 0; i < ds.N(); i += 2 {
		for j := i + 1; j < ds.N(); j += 5 {
			total++
			if (bl[i] == bl[j]) == (ll[i] == ll[j]) {
				agree++
			}
		}
	}
	fmt.Printf("\npairwise agreement between Basic-DDP and LSH-DDP clusterings: %.4f\n",
		float64(agree)/float64(total))
	fmt.Printf("runtimes: basic %.2fs (dist %d), lsh %.2fs (dist %d)\n",
		basic.Stats.Wall.Seconds(), basic.Stats.DistanceComputations,
		lshRes.Stats.Wall.Seconds(), lshRes.Stats.DistanceComputations)
}
