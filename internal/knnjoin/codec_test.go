package knnjoin

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/points"
)

// FuzzKnnRecords feeds arbitrary bytes to every decoder of the join's wire
// formats and to both jobs' map functions. Each decoder either returns an
// error or a value that re-encodes to exactly the input; each map either
// returns an error or emits, and never both; nothing panics.
func FuzzKnnRecords(f *testing.F) {
	p := points.Point{ID: 7, Pos: points.Vector{1.5, -2}}
	ns := []Neighbor{{ID: 3, D2: 0.25}, {ID: 9, D2: math.Inf(1)}}
	for _, seed := range [][]byte{
		{},
		{tagBase},
		{tagBase, 1, 2, 3, 4},
		encodeTagged(tagBase, p),
		encodeTagged(tagQuery, p),
		encodeTagged(tagQuery, points.Point{ID: 1, Pos: points.Vector{math.NaN(), math.Inf(-1)}}),
		encodeTagged(tagBase, points.Point{ID: 2, Pos: points.Vector{1, 2, 3}}), // wrong dimension
		encodeBucketQuery(0.75, p),
		encodePartial(partialList{QID: 4, G: math.Inf(1), Entries: ns}),
		encodeResult(resultRec{QID: 5, Fallback: true, Entries: ns}),
		encodeResult(resultRec{QID: 6}),
	} {
		f.Add(seed)
	}
	conf := buildConf(2, 3, 1.5, &Config{M: 2, Pi: 2, Seed: 1})
	jobs := []*mapreduce.Job{CandidatesJob(conf), ExactJob(conf)}
	f.Fuzz(func(t *testing.T, in []byte) {
		if g, p, err := decodeBucketQuery(in); err == nil {
			if out := encodeBucketQuery(g, p); !bytes.Equal(out, in) {
				t.Fatalf("bucket query %x re-encodes to %x", in, out)
			}
		}
		if pl, err := decodePartial(in); err == nil {
			if out := encodePartial(pl); !bytes.Equal(out, in) {
				t.Fatalf("partial list %x re-encodes to %x", in, out)
			}
		}
		if r, err := decodeResult(in); err == nil {
			if out := encodeResult(r); !bytes.Equal(out, in) {
				t.Fatalf("result %x re-encodes to %x", in, out)
			}
		}
		for _, job := range jobs {
			ctx := &mapreduce.TaskContext{Conf: conf, NumReduces: 3, Counters: mapreduce.NewCounters()}
			emitted := 0
			err := job.Map(ctx, "", in, mapreduce.EmitterFunc(func(string, []byte) { emitted++ }))
			if (err == nil) != (emitted > 0) {
				t.Fatalf("%s map of %x: err %v after %d records", job.Name, in, err, emitted)
			}
		}
	})
}
