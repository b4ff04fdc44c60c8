package ingest

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// forestModel is oneBucketModel(n) as a fleet shard (even global IDs, so a
// masked query runs) with d_c at the spacing of latticePoint's grid, so a
// fold meets rows exactly d_c away, which it must leave out.
func forestModel(n int) *model.Model {
	m := oneBucketModel(n)
	m.Dc = 0.125
	m.RowIDs = make([]int32, n)
	for i := range m.RowIDs {
		m.RowIDs[i] = int32(2 * i)
	}
	return m
}

// latticePoint is a point of the 1/8-spaced grid over the unit square, or,
// with half set, the centre of a grid cell: coordinates whose distances
// square exactly, so equal distances tie exactly.
func latticePoint(rng *rand.Rand, half bool) []float64 {
	p := []float64{float64(rng.Intn(9)) / 8, float64(rng.Intn(9)) / 8}
	if half {
		p[0] += 1.0 / 16
		p[1] += 1.0 / 16
	}
	return p
}

// deltaPoints returns n points for a delta: lattice points (exact ties),
// uniform points, and repeats of points already drawn (duplicate rows).
func deltaPoints(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		switch rng.Intn(3) {
		case 0:
			pts = append(pts, latticePoint(rng, false))
		case 1:
			pts = append(pts, []float64{rng.Float64(), rng.Float64()})
		default:
			if len(pts) > 0 {
				pts = append(pts, slices.Clone(pts[rng.Intn(len(pts))]))
			}
		}
	}
	return pts
}

// probes returns queries for checkRead and checkFold: lattice points and
// cell centres (exact ties among delta rows), uniform points, the delta's
// own rows, and one point far off everything.
func probes(st *Store, rng *rand.Rand, n int) []points.Vector {
	qs := []points.Vector{{5, 5}}
	for i := 0; i < n; i++ {
		qs = append(qs, latticePoint(rng, false), latticePoint(rng, true), points.Vector{rng.Float64(), rng.Float64()})
		if nd := len(st.dIDs); nd > 0 {
			j := rng.Intn(nd)
			qs = append(qs, slices.Clone(st.dCoords[j*2:(j+1)*2]))
		}
	}
	return qs
}

// readOpts returns the read options a check runs q under: pruned, exact
// only, and masked with a random layout mask and bound — zero (only a
// duplicate answers), a tight one or none.
func readOpts(rng *rand.Rand) []serve.BatchOpts {
	bound := []float64{0, rng.Float64() * 0.05, math.Inf(1)}[rng.Intn(3)]
	return []serve.BatchOpts{{}, {ExactOnly: true}, {Masks: []uint64{uint64(rng.Intn(8))}, Bounds: []float64{bound}}}
}

// checkRead compares assign at q with the merge of the base engine's answer
// and a full TopKRange scan of the delta, capped at the query's bound: the
// same error, nearest ID and d², and no more delta rows evaluated than the
// delta holds. The caller holds mu.
func checkRead(st *Store, q points.Vector, opts serve.BatchOpts) error {
	out, errs, _, scanned := st.assign([]points.Vector{q}, opts)
	base, berrs, _ := st.eng.AssignBatchOpts([]points.Vector{q}, opts)
	nd := len(st.dIDs)
	want, werr := base[0], berrs[0]
	var acc kernels.TopKAcc
	acc.Reset(1)
	if opts.Bounds != nil {
		acc.Cap(opts.Bounds[0])
	}
	kernels.TopKRange(st.dCoords, 2, q, 0, nd, &acc)
	skip := opts.Masks != nil && werr == serve.ErrNoCandidates && opts.Bounds == nil
	if b, b2 := acc.Nearest(); b >= 0 && !skip && (werr != nil || b2 < want.Dist2) {
		want, werr = serve.Assignment{Nearest: st.dIDs[b], Dist2: b2}, nil
	}
	if errs[0] != werr || out[0].Nearest != want.Nearest || out[0].Dist2 != want.Dist2 {
		return fmt.Errorf("q=%v %+v over %d delta rows: read %d d²=%v err=%v, full scan %d d²=%v err=%v",
			q, opts, nd, out[0].Nearest, out[0].Dist2, errs[0], want.Nearest, want.Dist2, werr)
	}
	if scanned > int64(nd) {
		return fmt.Errorf("q=%v: %d delta rows evaluated of %d", q, scanned, nd)
	}
	return nil
}

// checkFold compares the delta rows place folds a point at q onto with a
// points.SqDist loop over the whole delta. The caller holds ingestMu.
func checkFold(st *Store, q points.Vector) error {
	pl, err := st.place(q)
	if err != nil {
		return err
	}
	got := slices.Clone(pl.deltaFold)
	slices.Sort(got)
	var want []int32
	dc2 := st.eng.Model().Dc * st.eng.Model().Dc
	for j := range st.dIDs {
		if points.SqDist(q, st.dCoords[j*2:(j+1)*2]) < dc2 {
			want = append(want, int32(j))
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("q=%v over %d delta rows: fold lists %v, the rows within d_c are %v", q, len(st.dIDs), got, want)
	}
	return nil
}

// checkForest runs checkRead and checkFold on n rounds of probes.
func checkForest(t *testing.T, st *Store, rng *rand.Rand, n int) {
	t.Helper()
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	for _, q := range probes(st, rng, n) {
		st.mu.RLock()
		for _, opts := range readOpts(rng) {
			if err := checkRead(st, q, opts); err != nil {
				st.mu.RUnlock()
				t.Fatal(err)
			}
		}
		st.mu.RUnlock()
		if err := checkFold(st, q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaForestMatchesScan grows a delta through every size the forest
// changes shape at — 0 to 3 rows, one tree of 16 and 32 rows with a row
// short or over, and 1 025 rows — and holds its reads and folds to a full
// scan at each; then compacts while a batch lands during the build and
// holds the forest over the rows the swap keeps to it too.
func TestDeltaForestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := openStore(t, t.TempDir(), forestModel(300), func(c *Config) { c.Fsync = true })
	pts := deltaPoints(rng, 1025)
	have := 0
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 1025} {
		if _, err := st.IngestPoints(pts[have:n]); err != nil {
			t.Fatal(err)
		}
		have = n
		checkForest(t, st, rng, 20)
	}

	late := deltaPoints(rng, 21)
	landed := false
	st.syncPath = func(path string) error {
		if !landed {
			landed = true
			if _, err := st.IngestPoints(late); err != nil {
				t.Errorf("ingest during the build: %v", err)
			}
		}
		return fsyncPath(path)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if !landed || len(st.dIDs) != len(late) {
		t.Fatalf("late batch landed %v, %d delta rows after the swap, want %d", landed, len(st.dIDs), len(late))
	}
	checkForest(t, st, rng, 20)
	if _, err := st.IngestPoints(deltaPoints(rng, 12)); err != nil {
		t.Fatal(err)
	}
	checkForest(t, st, rng, 20)
}

// TestDeltaForestConcurrent runs forest reads, each checked against a full
// scan under the same read lock, and folds beside writers and compactions,
// so that -race sees the forest rebuilt under readers.
func TestDeltaForestConcurrent(t *testing.T) {
	st := openStore(t, t.TempDir(), forestModel(200), nil)
	done := make(chan struct{})
	var writers, aux sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < 40; b++ {
				if _, err := st.IngestPoints(deltaPoints(rng, 1+rng.Intn(5))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func(r int) {
			defer aux.Done()
			rng := rand.New(rand.NewSource(int64(10 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				st.mu.RLock()
				qs := probes(st, rng, 1)
				var err error
				for _, q := range qs {
					for _, opts := range readOpts(rng) {
						err = cmp.Or(err, checkRead(st, q, opts))
					}
				}
				st.mu.RUnlock()
				if r == 0 {
					st.ingestMu.Lock()
					err = cmp.Or(err, checkFold(st, qs[len(qs)-1]))
					st.ingestMu.Unlock()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	aux.Wait()
}

// FuzzDeltaForest appends and compacts in a fuzz-chosen order, then holds
// the forest's reads and folds to a full scan. Each byte is one step: a
// multiple of 16 compacts, anything else appends a point of the 1/16 grid
// over the unit square (its low nibble and the next byte's high one), so
// rows tie and repeat often.
func FuzzDeltaForest(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0x11, 0x11, 0x11, 0x11, 0x00, 0x23, 0x45})
	f.Add(bytes.Repeat([]byte{0x37, 0x9b, 0x5d}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		st := openStore(t, t.TempDir(), forestModel(64), nil)
		compactions := 0
		for i, b := range data {
			if b%16 == 0 {
				if compactions < 2 {
					compactions++
					if _, err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			next := byte(0)
			if i+1 < len(data) {
				next = data[i+1]
			}
			p := []float64{float64(b%16) / 16, float64(next>>4) / 16}
			if _, err := st.IngestPoints([][]float64{p}); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkForest(t, st, rng, 4)
	})
}
