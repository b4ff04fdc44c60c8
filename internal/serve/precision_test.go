package serve_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

func asVecs(qs [][]float64) []points.Vector {
	vs := make([]points.Vector, len(qs))
	for i, q := range qs {
		vs[i] = q
	}
	return vs
}

// precisionQueries builds a mixed query workload against mdl: nudged
// training rows (LSH buckets hit), fresh random points near the data, and
// far-out points that force the exact full-scan fallback.
func precisionQueries(mdl *model.Model) [][]float64 {
	rng := rand.New(rand.NewSource(99))
	var qs [][]float64
	for i := 0; i < mdl.N(); i += 7 {
		q := append([]float64(nil), mdl.Row(i)...)
		q[rng.Intn(mdl.Dim)] += mdl.Dc * (rng.Float64() - 0.5)
		qs = append(qs, q)
	}
	for i := 0; i < 50; i++ {
		q := make([]float64, mdl.Dim)
		for d := range q {
			q[d] = rng.NormFloat64() * 50
		}
		qs = append(qs, q)
	}
	for i := 0; i < 10; i++ { // far from every bucket: exact fallback
		q := make([]float64, mdl.Dim)
		for d := range q {
			q[d] = 1e6 + float64(i)
		}
		qs = append(qs, q)
	}
	return qs
}

// TestPrecisionConformance pins the compact scan path's core promise: f32
// and q8 serving produces assignments bit-identical to the f64 baseline —
// same cluster, halo flag, nearest row (including the lowest-index tie
// rule), and the same float64 distances — on both the LSH-pruned and the
// exact-scan path.
func TestPrecisionConformance(t *testing.T) {
	mdl, _, _ := trainModel(t, 1500, 4)
	base, err := serve.NewEngine(mdl, serve.PrecF64)
	if err != nil {
		t.Fatal(err)
	}
	qs := precisionQueries(mdl)
	for _, prec := range []serve.Precision{serve.PrecF32, serve.PrecQ8} {
		eng, err := serve.NewEngine(mdl, prec)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Precision(); got != prec {
			t.Fatalf("engine downgraded %s to %s on a well-behaved model", prec, got)
		}
		for _, exactOnly := range []bool{false, true} {
			for qi, q := range qs {
				want, _, err := base.Assign(q, exactOnly)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := eng.Assign(q, exactOnly)
				if err != nil {
					t.Fatalf("%s query %d: %v", prec, qi, err)
				}
				if got != want {
					t.Fatalf("%s exactOnly=%v query %d: %+v, f64 says %+v", prec, exactOnly, qi, got, want)
				}
			}
		}
	}
}

// TestAssignBatchMatchesSequential checks that the batched entry point is
// answer-for-answer identical to one Assign call per query, at every
// precision, and that a query without a finite distance fails alone
// without poisoning the rest of its batch.
func TestAssignBatchMatchesSequential(t *testing.T) {
	mdl, _, _ := trainModel(t, 800, 3)
	qs := precisionQueries(mdl)
	for _, prec := range []serve.Precision{serve.PrecF64, serve.PrecF32, serve.PrecQ8} {
		eng, err := serve.NewEngine(mdl, prec)
		if err != nil {
			t.Fatal(err)
		}
		for _, exactOnly := range []bool{false, true} {
			out, errs, st := eng.AssignBatch(asVecs(qs), exactOnly)
			var wantScanned int64
			for i, q := range qs {
				if errs[i] != nil {
					t.Fatalf("%s batch query %d: %v", prec, i, errs[i])
				}
				want, sc, err := eng.Assign(q, exactOnly)
				if err != nil {
					t.Fatal(err)
				}
				if out[i] != want {
					t.Fatalf("%s exactOnly=%v query %d: batch %+v, sequential %+v", prec, exactOnly, i, out[i], want)
				}
				wantScanned += int64(sc)
			}
			if st.Scanned != wantScanned {
				t.Errorf("%s exactOnly=%v: batch scanned %d rows, sequential %d", prec, exactOnly, st.Scanned, wantScanned)
			}
			if exactOnly && st.RerankQueries != 0 {
				t.Errorf("%s: exact scans re-ranked %d queries; they scan float64", prec, st.RerankQueries)
			}
			if !exactOnly && prec != serve.PrecF64 && st.RerankQueries == 0 {
				t.Errorf("%s: no re-ranked queries reported", prec)
			}
			if prec == serve.PrecF64 && (st.Rerank != 0 || st.RerankQueries != 0) {
				t.Errorf("f64 reported rerank work (%d rows, %d queries)", st.Rerank, st.RerankQueries)
			}
		}
	}

	// Per-query failure isolation: the overflowing query errors, its batch
	// neighbors still get answers.
	small := smallModel("batch-iso")
	for _, prec := range []serve.Precision{serve.PrecF64, serve.PrecF32, serve.PrecQ8} {
		eng, err := serve.NewEngine(small, prec)
		if err != nil {
			t.Fatal(err)
		}
		batch := [][]float64{{1, 1}, {1e200, 1e200}, {9, 9}}
		out, errs, _ := eng.AssignBatch(asVecs(batch), false)
		if errs[1] == nil {
			t.Errorf("%s: overflowing query in a batch returned no error", prec)
		}
		if errs[0] != nil || errs[2] != nil {
			t.Errorf("%s: overflow poisoned batch neighbors: %v / %v", prec, errs[0], errs[2])
		}
		if out[0].Nearest != 0 || out[2].Nearest != 1 {
			t.Errorf("%s: batch neighbors misassigned: %+v, %+v", prec, out[0], out[2])
		}
	}
}

// TestPrecisionDowngrade: a model whose coordinate spread overflows the q8
// scale must silently serve at f64 (results stay correct), not fail.
func TestPrecisionDowngrade(t *testing.T) {
	m := smallModel("downgrade")
	// Dim-0 spread overflows the q8 scale; point 2 stays finitely reachable.
	m.Data = []float64{-math.MaxFloat64, 0, math.MaxFloat64, 0, 9, 9}
	m.Rho = []float64{1, 1, 1}
	m.Labels = []int32{0, 1, 1}
	eng, err := serve.NewEngine(m, serve.PrecQ8)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Precision(); got != serve.PrecF64 {
		t.Fatalf("unquantizable model served at %s, want f64", got)
	}
	if a, _, err := eng.Assign([]float64{1, 1}, false); err != nil || a.Nearest != 2 {
		t.Fatalf("downgraded engine misassigned: %+v, %v", a, err)
	}
}

func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]serve.Precision{
		"": serve.PrecF64, "f64": serve.PrecF64, "f32": serve.PrecF32, "q8": serve.PrecQ8,
	} {
		got, err := serve.ParsePrecision(s)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v", s, got, err)
		}
		if want.String() != s && s != "" {
			t.Errorf("%v.String() = %q, want %q", want, want.String(), s)
		}
	}
	if _, err := serve.ParsePrecision("fp16"); err == nil {
		t.Error("unknown precision accepted")
	}
}

// TestServerPrecisionConformance drives the full HTTP path at q8 and
// compares every answer against an f64 server over the same model, then
// checks the rerank counters and the advertised precision.
func TestServerPrecisionConformance(t *testing.T) {
	mdl, _, _ := trainModel(t, 1000, 3)
	start := func(precision string) *serve.Server {
		srv := serve.New(serve.Config{Precision: precision})
		if err := srv.SetModel(mdl); err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	ref := start("f64")
	defer ref.Shutdown(context.Background()) //nolint:errcheck
	q8 := start("q8")
	defer q8.Shutdown(context.Background()) //nolint:errcheck

	qs := precisionQueries(mdl)
	for lo := 0; lo < len(qs); lo += 32 {
		hi := lo + 32
		if hi > len(qs) {
			hi = len(qs)
		}
		_, want := postAssign(t, ref.Addr(), qs[lo:hi])
		_, got := postAssign(t, q8.Addr(), qs[lo:hi])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: q8 served %+v, f64 served %+v", lo+i, got[i], want[i])
			}
		}
	}
	st := q8.Stats()
	if st.Model.Precision != "q8" {
		t.Errorf("statsz precision %q, want q8", st.Model.Precision)
	}
	if st.Counters[serve.CtrRerankQueries] == 0 {
		t.Error("q8 server reported no re-ranked queries")
	}
	if ref.Stats().Counters[serve.CtrRerankRows] != 0 {
		t.Error("f64 server reported rerank rows")
	}
	// The knob round-trips through /statsz JSON.
	var doc serve.Statsz
	resp, err := http.Get("http://" + q8.Addr() + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Model.Precision != "q8" {
		t.Errorf("/statsz precision %q, want q8", doc.Model.Precision)
	}

	if _, err := serve.ParsePrecision("bogus"); err == nil {
		t.Error("bogus precision accepted")
	}
	bad := serve.New(serve.Config{Precision: "bogus"})
	if err := bad.SetModel(mdl); err == nil {
		t.Error("SetModel accepted an unknown precision")
	}
}
