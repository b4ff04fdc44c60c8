package knnjoin

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/points"
)

// FuzzKnnRecords feeds arbitrary bytes to every decoder of the join's wire
// formats — the box table included, keyed by bucket or by query — and to
// both jobs' map functions. Each decoder either returns an error or a value
// that re-encodes to exactly the input. The candidates map either returns an
// error or accounts for the record — emits it, or drops every base copy it
// does not ship — and never both. The exact map, at P = 3 groups, either
// returns an error and emits nothing, or emits a base record to exactly 3
// groups and a query to 1; with a box table it emits a base record to some
// of the 3 and drops it from the rest; at P = 0 it returns an error. Nothing
// panics.
func FuzzKnnRecords(f *testing.F) {
	p := points.Point{ID: 7, Pos: points.Vector{1.5, -2}}
	ns := []Neighbor{{ID: 3, D2: 0.25}, {ID: 9, D2: math.Inf(1)}}
	conf := buildConf(2, 3, 1.5, &Config{M: 2, Pi: 2, Seed: 1})
	layouts, err := layoutsOf(conf)
	if err != nil {
		f.Fatal(err)
	}
	table := routeBoxes(layouts, points.FromVectors("R", []points.Vector{p.Pos, {4, 4}, {math.NaN(), 0}}))
	conf[confBoxes] = encodeBoxes(table)
	exactConf := conf.Clone()
	exactConf.SetInt(confGroups, 3)
	noGroups := conf.Clone()
	noGroups.SetInt(confGroups, 0)
	boxes := []byte(conf[confBoxes])
	// The exact job's table: a box around each of three queries, one per
	// group, from a four-point sample.
	sample := newBaseSample(points.FromVectors("S", []points.Vector{{0, 0}, {1, 2}, {-3, 1}, {5, 5}}), 2, 1)
	radii := sample.radiusBoxes(points.FromVectors("R", []points.Vector{p.Pos, {4, 4}, {0, 0}}), []int32{0, 1, 2})
	if radii == nil || len(radii.boxes) != 3 {
		f.Fatalf("exact box table %+v, want 3 boxes", radii)
	}
	tabled := exactConf.Clone()
	tabled[confExactBoxes] = encodeBoxes(radii)
	exactBoxes := []byte(tabled[confExactBoxes])
	entry := func(key string, vals ...float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(key)))
		b = append(b, key...)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	header := func(dim, n uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, dim), n)
	}
	for _, seed := range [][]byte{
		{},
		{tagBase},
		{tagBase, 1, 2, 3, 4},
		encodeTagged(tagBase, p),
		encodeTagged(tagQuery, p),
		encodeTagged(tagQuery, points.Point{ID: 1, Pos: points.Vector{math.NaN(), math.Inf(-1)}}),
		encodeTagged(tagBase, points.Point{ID: 2, Pos: points.Vector{1, 2, 3}}), // wrong dimension
		encodeBucketQuery(0.75, p),
		encodeTagged(tagQuery, points.Point{ID: -5, Pos: p.Pos}), // a negative ID still picks a group
		encodeResult(resultRec{QID: 5, Fallback: true, Entries: ns}),
		encodeResult(resultRec{QID: 6}),
		boxes,
		boxes[:len(boxes)-1],                                                   // ragged last box
		append(header(1, 1), entry("\x00\x01", 0)...),                          // ragged box
		append(header(1, 1), 9, 0, 0, 0, 1),                                    // truncated key
		append(append(header(1, 2), entry("k", 0, 1)...), entry("k", 0, 1)...), // repeated key
		append(append(header(1, 2), entry("k", 0, 1)...), entry("a", 0, 1)...), // keys out of order
		header(0, 0),
		exactBoxes,
		exactBoxes[:len(exactBoxes)-9], // a box cut short
		append(header(2, 1<<31), exactBoxes[8:]...),          // more boxes than bytes
		append(header(1, 1), entry("\x01\x00\x00", 0, 1)...), // a 3-byte key: decodes, no query ID
	} {
		f.Add(seed)
	}
	// Point headers where their varints change length: IDs 127, 128,
	// 16 383, 16 384 and −1 at the layouts' dim, dims 0, 1, 127 and 128 at
	// ID 128, and a padded ID.
	for _, id := range []int32{127, 128, 16383, 16384, -1} {
		q := points.Point{ID: id, Pos: p.Pos}
		f.Add(encodeTagged(tagBase, q))
		f.Add(encodeTagged(tagQuery, q))
		f.Add(encodeBucketQuery(0.5, q))
	}
	for _, dim := range []int{0, 1, 127, 128} {
		f.Add(encodeTagged(tagBase, points.Point{ID: 128, Pos: make(points.Vector, dim)}))
		f.Add(encodeTagged(tagQuery, points.Point{ID: 128, Pos: make(points.Vector, dim)}))
	}
	f.Add(append([]byte{tagBase, 0x87, 0x00, 0x02}, make([]byte, 16)...))
	cand, exact, exactNone, exactTabled := CandidatesJob(conf), ExactJob(exactConf), ExactJob(noGroups), ExactJob(tabled)
	mapRecord := func(job *mapreduce.Job, in []byte) (emitted int, ctx *mapreduce.TaskContext, err error) {
		ctx = &mapreduce.TaskContext{Conf: job.Conf, Counters: mapreduce.NewCounters()}
		err = job.Map(ctx, "", in, mapreduce.EmitterFunc(func(string, []byte) { emitted++ }))
		return emitted, ctx, err
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if g, p, err := decodeBucketQuery(in); err == nil {
			if out := encodeBucketQuery(g, p); !bytes.Equal(out, in) {
				t.Fatalf("bucket query %x re-encodes to %x", in, out)
			}
		}
		if r, err := decodeResult(in); err == nil {
			if out := encodeResult(r); !bytes.Equal(out, in) {
				t.Fatalf("result %x re-encodes to %x", in, out)
			}
		}
		if bt, err := decodeBoxes(string(in)); err == nil {
			if out := encodeBoxes(bt); out != string(in) {
				t.Fatalf("box table %x re-encodes to %x", in, out)
			}
		}
		emitted, ctx, err := mapRecord(cand, in)
		dropped := ctx.Counters.Get(CtrBaseDropped)
		if (err == nil) != (int64(emitted)+dropped > 0) || (err != nil && emitted > 0) {
			t.Fatalf("%s map of %x: err %v after %d records, %d dropped", cand.Name, in, err, emitted, dropped)
		}
		emitted, _, err = mapRecord(exact, in)
		want := 1
		if len(in) > 0 && in[0] == tagBase {
			want = 3
		}
		if err == nil && emitted != want || err != nil && emitted != 0 {
			t.Fatalf("%s map of %x at 3 groups: err %v after %d records", exact.Name, in, err, emitted)
		}
		emitted, ctx, err = mapRecord(exactTabled, in)
		dropped = ctx.Counters.Get(CtrBaseDropped)
		if err != nil && emitted+int(dropped) != 0 || err == nil && emitted+int(dropped) != want {
			t.Fatalf("%s map of %x with a box table: err %v after %d records, %d dropped", exact.Name, in, err, emitted, dropped)
		}
		if emitted, _, err := mapRecord(exactNone, in); err == nil || emitted != 0 {
			t.Fatalf("%s map of %x at 0 groups: err %v after %d records", exact.Name, in, err, emitted)
		}
	})
}

// TestBoxTableDecodeErrors: each way a box table can be malformed is an
// error, and a well-formed one round-trips.
func TestBoxTableDecodeErrors(t *testing.T) {
	ok := &boxTable{dim: 2, boxes: map[string][]float64{"\x00\x01": {0, 1, 2, 3}, "\x01\x02": {-1, -1, math.Inf(1), math.NaN()}}}
	enc := encodeBoxes(ok)
	got, err := decodeBoxes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if encodeBoxes(got) != enc || len(got.boxes) != 2 || got.dim != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	lenAt := 8 // first key length
	repeated := []byte(encodeBoxes(&boxTable{dim: 0, boxes: map[string][]float64{"a": {}, "b": {}}}))
	repeated[len(repeated)-1] = 'a' // "a", "a"
	for name, bad := range map[string]string{
		"short header":   enc[:7],
		"ragged box":     enc[:len(enc)-1],
		"trailing byte":  enc + "\x00",
		"truncated key":  enc[:lenAt] + "\xff\x00\x00\x00" + enc[lenAt+4:],
		"empty key":      enc[:lenAt] + "\x00\x00\x00\x00" + enc[lenAt+4:],
		"repeated key":   string(repeated),
		"too many boxes": enc[:4] + "\x03\x00\x00\x00" + enc[8:],
		"huge dimension": "\xff\xff\xff\xff\x01\x00\x00\x00\x01\x00\x00\x00k",
		"huge box count": "\x01\x00\x00\x00\xff\xff\xff\xff",
	} {
		if _, err := decodeBoxes(bad); err == nil {
			t.Errorf("%s: decoded without an error", name)
		}
	}
}

// TestExactTableErrors: an exact job whose box table the driver could not
// have built — a key that is no query ID, a table of another dimension, a
// zero-dimensional table, a NaN bound, bytes that are no table — fails
// every map call instead of shipping by it.
func TestExactTableErrors(t *testing.T) {
	conf := buildConf(2, 3, 1, filled(Config{}))
	conf.SetInt(confGroups, 2)
	box := []float64{0, 0, 1, 1}
	for name, table := range map[string]*boxTable{
		"short key":     {dim: 2, boxes: map[string][]float64{"\x01\x00": box}},
		"long key":      {dim: 2, boxes: map[string][]float64{queryKey(1) + "\x00": box}},
		"dim mismatch":  {dim: 1, boxes: map[string][]float64{queryKey(1): {0, 1}}},
		"zero-dim":      {dim: 0, boxes: map[string][]float64{queryKey(1): {}}},
		"NaN bound":     {dim: 2, boxes: map[string][]float64{queryKey(1): {0, math.NaN(), 1, 1}}},
		"malformed box": nil,
	} {
		c := conf.Clone()
		if table != nil {
			c[confExactBoxes] = encodeBoxes(table)
		} else {
			c[confExactBoxes] = "\x02\x00\x00\x00\x01\x00\x00\x00"
		}
		job := ExactJob(c)
		for _, rec := range [][]byte{
			encodeTagged(tagBase, points.Point{ID: 4, Pos: points.Vector{0.5, 0.5}}),
			encodeTagged(tagQuery, points.Point{ID: 1, Pos: points.Vector{0.5, 0.5}}),
		} {
			ctx := &mapreduce.TaskContext{Conf: c, Counters: mapreduce.NewCounters()}
			emitted := 0
			err := job.Map(ctx, "", rec, mapreduce.EmitterFunc(func(string, []byte) { emitted++ }))
			if err == nil || emitted != 0 {
				t.Fatalf("%s: map of %x: err %v after %d records", name, rec, err, emitted)
			}
		}
	}
}
