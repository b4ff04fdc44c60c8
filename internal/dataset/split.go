package dataset

import (
	"fmt"

	"repro/internal/points"
)

// Split partitions ds into two disjoint data sets of nFirst and
// n−nFirst points by a seeded shuffle — the generator of the kNN-join
// benchmarks' query/base pairs. Both halves are renumbered to dense IDs
// (the repository-wide dataset invariant) and carry ds's labels when
// present; the same (ds, nFirst, seed) always yields the same split.
func Split(ds *points.Dataset, nFirst int, seed int64) (*points.Dataset, *points.Dataset, error) {
	if nFirst < 1 || nFirst >= ds.N() {
		return nil, nil, fmt.Errorf("dataset: split size %d outside (0, %d)", nFirst, ds.N())
	}
	perm := points.NewRand(seed).Perm(ds.N())
	return take(ds, ds.Name+"-R", perm[:nFirst]), take(ds, ds.Name+"-S", perm[nFirst:]), nil
}

// Subsample keeps n of ds's points, evenly strided — point ⌊i·N/n⌋ for
// i = 0, 1, …, every s-th when n = N/s — renumbered to dense IDs in order,
// with their labels. A generator may emit its clusters one after another
// (Aggregation does), so a stride keeps every cluster where a prefix keeps
// the first few. n must be positive; ds itself is returned when n ≥ N.
func Subsample(ds *points.Dataset, n int) *points.Dataset {
	if n >= ds.N() {
		return ds
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * ds.N() / n
	}
	return take(ds, ds.Name, idx)
}

// take copies ds's points idx (and their labels) into a data set of dense
// IDs named name; the coordinates are shared, not copied.
func take(ds *points.Dataset, name string, idx []int) *points.Dataset {
	out := &points.Dataset{Name: name, Points: make([]points.Point, len(idx))}
	if ds.Labels != nil {
		out.Labels = make([]int, len(idx))
	}
	for i, j := range idx {
		out.Points[i] = points.Point{ID: int32(i), Pos: ds.Points[j].Pos}
		if ds.Labels != nil {
			out.Labels[i] = ds.Labels[j]
		}
	}
	return out
}
