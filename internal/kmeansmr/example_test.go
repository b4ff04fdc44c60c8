package kmeansmr_test

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/kmeansmr"
	"repro/internal/mapreduce"
)

// One distributed K-means run of a fixed number of iterations.
func ExampleRun() {
	ds := dataset.Blobs("km", 300, 2, 3, 400, 2, 5)
	res, err := kmeansmr.Run(context.Background(), ds, kmeansmr.Config{
		Engine:  &mapreduce.LocalEngine{Parallelism: 2},
		K:       3,
		MaxIter: 5,
		Seed:    1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d clusters over %d points after %d iterations, last move %.3g\n",
		len(res.Centers), ds.N(), len(res.Iterations), res.Iterations[len(res.Iterations)-1].MaxMove)
	// Output:
	// 3 clusters over 300 points after 5 iterations, last move 0
}
