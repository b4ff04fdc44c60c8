package mapreduce

// sortPairs orders pairs by key. The sort is stable so that values under
// one key keep their emission order — several jobs rely on deterministic
// value order for reproducible output.
func sortPairs(ps []Pair) {
	sortPairsScratch(ps, nil)
}

// insertionCutoff is the run length below which the pair sort switches to
// insertion sort; merge passes start from runs of this size.
const insertionCutoff = 24

// sortPairsScratch is sortPairs with a reusable merge buffer: a bottom-up
// stable merge sort over []Pair directly. Compared to sort.SliceStable this
// drops the per-comparison interface and reflect-based swap costs, moves
// whole Pair values instead of repeated element swaps, and — given a
// scratch buffer — allocates nothing. Returns the (possibly grown) scratch
// for the caller to reuse.
func sortPairsScratch(ps, scratch []Pair) []Pair {
	n := len(ps)
	for lo := 0; lo < n; lo += insertionCutoff {
		insertionSortPairs(ps[lo:minLen(lo+insertionCutoff, n)])
	}
	if n <= insertionCutoff {
		return scratch
	}
	if cap(scratch) < n {
		scratch = make([]Pair, n)
	}
	scratch = scratch[:n]
	src, dst := ps, scratch
	for width := insertionCutoff; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := minLen(lo+width, n)
			hi := minLen(lo+2*width, n)
			mergePairs(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
	return scratch
}

// insertionSortPairs stable-sorts a short run in place.
func insertionSortPairs(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && ps[j].Key > p.Key {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// mergePairs merges two adjacent sorted runs into dst. Ties take from a,
// the earlier run, preserving stability.
func mergePairs(dst, a, b []Pair) {
	for len(a) > 0 && len(b) > 0 {
		if b[0].Key < a[0].Key {
			dst[0] = b[0]
			b = b[1:]
		} else {
			dst[0] = a[0]
			a = a[1:]
		}
		dst = dst[1:]
	}
	copy(dst, a)
	copy(dst, b)
}

func minLen(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// forEachGroup walks pairs already sorted by key and invokes fn once per
// distinct key with all values of that group. The values slice is reused
// between calls only if fn does not retain it; here a fresh slice is built
// per group because user reducers commonly retain values.
func forEachGroup(ps []Pair, fn func(key string, values [][]byte) error) error {
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].Key == ps[i].Key {
			j++
		}
		values := make([][]byte, 0, j-i)
		for k := i; k < j; k++ {
			values = append(values, ps[k].Value)
		}
		if err := fn(ps[i].Key, values); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// runCombiner applies a combiner to one partition buffer already sorted
// by key: group, re-emit. It returns the combined pairs and the number of
// input records consumed. Callers sort first (and time that sort
// separately from the combine, so trace phases don't blur together).
func runCombiner(ctx *TaskContext, combine ReduceFunc, ps []Pair) ([]Pair, int, error) {
	out := make([]Pair, 0, len(ps))
	sink := EmitterFunc(func(key string, value []byte) {
		out = append(out, Pair{Key: key, Value: value})
	})
	if err := forEachGroup(ps, func(key string, values [][]byte) error {
		return combine(ctx, key, values, sink)
	}); err != nil {
		return nil, 0, err
	}
	return out, len(ps), nil
}

// pairBytes is the shuffle size accounting for one record.
func pairBytes(p Pair) int64 { return int64(len(p.Key) + len(p.Value)) }

// PairsBytes is the shuffle-size accounting (key bytes + value bytes)
// summed over a record slice — the unit the staging and dag.* byte
// counters use, matching the per-record shuffle accounting.
func PairsBytes(ps []Pair) int64 {
	var n int64
	for _, p := range ps {
		n += pairBytes(p)
	}
	return n
}
