package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (the ceil(q·n)-th smallest
// value, q in (0,1]) of xs without modifying it. Nearest rank never
// interpolates, so a reported percentile is always a latency that some
// request really had. Zero when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the zero-based nearest-rank index of the q-quantile among n
// sorted values.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// median is the nearest-rank 0.5-quantile: for an even count the lower of
// the two middle values, so a median of timings is itself a measured timing.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// each computes f per segment (or rep).
func each[S any](segs []S, f func(S) float64) []float64 {
	vals := make([]float64, len(segs))
	for i, s := range segs {
		vals[i] = f(s)
	}
	return vals
}

// quiet returns the value one tenth of the way in from the best end of xs
// (nearest rank: the best of up to 10 values, the second best of 20, the
// fourth best of 40). Every timing the benchmark reports is computed per
// segment or rep and summarised this way, because on a shared box a
// co-tenant can only make a segment slower: the slow end of the distribution
// measures the neighbours, the fast end measures the code. Measured on the
// reference box, the same code's segment *median* moved 840..1183 req/s
// between runs minutes apart while this figure moved 1205..1368. Skipping
// the very best values keeps one freak segment from setting the figure.
func quiet(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(len(s), 0.1)
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// digest is an order-sensitive FNV-1a fingerprint of a stream of values; the
// harness uses it to check that two reps (or two runs at one seed) produced
// the same labels or were fed the same query stream.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:]) // a hash.Hash never returns an error
}

func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d digest) sum() uint64 { return d.h.Sum64() }

func digestInt32(xs []int32) uint64 {
	d := newDigest()
	for _, x := range xs {
		d.u64(uint64(uint32(x)))
	}
	return d.sum()
}

func digestVectors(vs [][]float64) uint64 {
	d := newDigest()
	for _, v := range vs {
		for _, x := range v {
			d.f64(x)
		}
	}
	return d.sum()
}
