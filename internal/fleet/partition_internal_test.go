package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/model"
)

// TestSampledWeightBalance checks that the partitioner's placement
// balances its own sampled bucket-cost estimate: on a clustered model the
// busiest shard must stay within 25% of the ideal share. The estimate is
// recomputed here through the same helpers Partition uses, so the test
// pins the greedy placement, not the estimator's absolute scale.
func TestSampledWeightBalance(t *testing.T) {
	ds := dataset.Blobs("fleet-balance", 4000, 2, 3, 100, 2.5, 7)
	res, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	peaks, labels, err := res.Cluster(ds, core.SelectTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := core.RunLSHHalo(context.Background(), ds, res, labels, core.LSHConfig{Config: core.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := core.ExportModel(ds, res, peaks, labels, hr.Border, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		_, mf, err := Partition(mdl, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		place, err := mf.Placement()
		if err != nil {
			t.Fatal(err)
		}
		ix := mf.Layouts().BuildIndex(mdl.Data, mdl.N(), 1)
		weights := estimateBucketWeights(ix, mf.Layouts(), mdl.Data, mdl.Dim)
		load := make([]float64, shards)
		total := 0.0
		for id, w := range weights {
			load[place.Owner(string(ix.Key(int32(id))))] += w
			total += w
		}
		ideal := total / float64(shards)
		for s, w := range load {
			if w > ideal*1.25 {
				t.Errorf("shards=%d: shard %d carries %.0f of %.0f estimated scan cost (ideal %.0f, cap +25%%)",
					shards, s, w, total, ideal)
			}
		}
	}
}

// harnessModel builds a model at the benchmark harness's serving shape
// directly, without a training run: dimension 8 in 16 blobs of σ 2.5 in a
// 100-box, the paper's LSH shape (10 layouts of 3 functions, width solved
// for d_c 8.4), labels by generating blob and each blob's first row as its
// peak. Each of the n/repeat drawn rows appears repeat times in a row.
func harnessModel(tb testing.TB, n, repeat int) *model.Model {
	const dim, clusters, dc = 8, 16, 8.4
	w, err := lsh.SolveWidth(0.99, dc, 3, 10)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20170419))
	centers := make([]float64, clusters*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	mdl := &model.Model{
		Name: "partition-test", Dim: dim, Dc: dc,
		LSH:    model.Params{Seed: 1, M: 10, Pi: 3, W: w},
		Data:   make([]float64, 0, n*dim),
		Rho:    make([]float64, 0, n),
		Labels: make([]int32, 0, n),
		Peaks:  make([]int32, clusters),
		Border: make([]float64, clusters),
	}
	for c := range mdl.Peaks {
		mdl.Peaks[c] = -1
	}
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		c := int32(rng.Intn(clusters))
		if i%repeat == 0 {
			for j := range row {
				row[j] = centers[int(c)*dim+j] + rng.NormFloat64()*2.5
			}
		} else {
			c = mdl.Labels[i-1]
		}
		if mdl.Peaks[c] < 0 {
			mdl.Peaks[c] = int32(i)
		}
		mdl.Data = append(mdl.Data, row...)
		mdl.Rho = append(mdl.Rho, rng.Float64())
		mdl.Labels = append(mdl.Labels, c)
	}
	for c, p := range mdl.Peaks {
		if p < 0 {
			tb.Fatalf("blob %d drew no row", c)
		}
	}
	return mdl
}

// replayOracle is the two-pass replay estimateBucketWeights replaced: walk
// every probed bucket, collecting the rows it touches, then charge each
// touched row's scoring to its first matching layout in the rotation from
// the certifying one. Each bucket's members are listed from RowKeys.
func replayOracle(ix *lsh.Index, layouts *lsh.Layouts, data []float64, dim int) []float64 {
	n, m := len(data)/dim, layouts.M()
	weights := make([]float64, ix.Len())
	buckets := make([][]int32, ix.Len())
	for x, id := range ix.RowKeys {
		buckets[id] = append(buckets[id], int32(x/m))
	}
	samples := min(n, maxWeightSamples)
	seen := make([]bool, n)
	var touched []int32
	var kb lsh.KeyBuf
	for k := 0; k < samples; k++ {
		q := k * n / samples
		qk := ix.RowKeys[q*m : q*m+m]
		layouts.Hash(&kb, data[q*dim:][:dim])
		_, j0 := layouts.GuaranteeRadius(&kb)
		for _, id := range qk {
			members := buckets[id]
			weights[id] += float64(len(members))
			for _, r := range members {
				if !seen[r] {
					seen[r] = true
					touched = append(touched, r)
				}
			}
		}
		for _, r := range touched {
			base := int(r) * m
			for dj := 0; dj < m; dj++ {
				j2 := j0 + dj
				if j2 >= m {
					j2 -= m
				}
				if ix.RowKeys[base+j2] == qk[j2] {
					weights[qk[j2]] += scoreUnit
					break
				}
			}
			seen[r] = false
		}
		touched = touched[:0]
	}
	return weights
}

// TestBucketWeightsMatchReplay holds the one-pass estimator to the
// two-pass replay bit for bit at 1, 2 and 4 cores, on harness-shaped blobs,
// on rows repeated 4×, on a model small enough that every row is a sample,
// and on one whose rows all share one bucket per layout.
func TestBucketWeightsMatchReplay(t *testing.T) {
	oneBucket := harnessModel(t, 2500, 1)
	oneBucket.LSH.W = 1e6
	cases := []struct {
		name string
		mdl  *model.Model
	}{
		{"blobs", harnessModel(t, 20_000, 1)},
		{"repeated4", harnessModel(t, 20_000, 4)},
		{"every-row", harnessModel(t, 2_000, 1)},
		{"one-bucket", oneBucket},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		layouts := tc.mdl.Layouts()
		ix := layouts.BuildIndex(tc.mdl.Data, tc.mdl.N(), 1)
		if tc.name == "one-bucket" && ix.Len() != layouts.M() {
			t.Fatalf("%s: %d buckets over %d layouts, want one per layout", tc.name, ix.Len(), layouts.M())
		}
		want := replayOracle(ix, layouts, tc.mdl.Data, tc.mdl.Dim)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := estimateBucketWeights(ix, layouts, tc.mdl.Data, tc.mdl.Dim)
			if len(got) != len(want) {
				t.Fatalf("%s at %d cores: %d weights, want %d", tc.name, procs, len(got), len(want))
			}
			for id := range want {
				if got[id] != want[id] {
					t.Errorf("%s at %d cores: bucket %d (%s) weighs %v, the replay %v",
						tc.name, procs, id, lsh.KeyString(string(ix.Key(int32(id)))), got[id], want[id])
					break
				}
			}
		}
	}
}

// placementQuality measures a partition of mdl: its replication (shard
// rows over source rows), the distinct shards a row's M keys resolve to on
// average, and the busiest shard's share of the sampled scan weight over
// the mean share.
func placementQuality(tb testing.TB, mdl *model.Model, subs []*model.Model, mf *Manifest) (replication, ownersPerRow, maxOverMean float64) {
	place, err := mf.Placement()
	if err != nil {
		tb.Fatal(err)
	}
	n, lm := mdl.N(), mf.M
	ix := mf.Layouts().BuildIndex(mdl.Data, n, 1)
	owners := make([]int, ix.Len())
	for id := range owners {
		owners[id] = place.Owner(string(ix.Key(int32(id))))
	}
	shardRows, distinct := 0, 0
	for _, sub := range subs {
		shardRows += sub.N()
	}
	for i := 0; i < n; i++ {
		var seen uint64
		for _, id := range ix.RowKeys[i*lm:][:lm] {
			seen |= 1 << owners[id]
		}
		distinct += bits.OnesCount64(seen)
	}
	load := make([]float64, mf.Shards)
	total := 0.0
	for id, w := range estimateBucketWeights(ix, mf.Layouts(), mdl.Data, mdl.Dim) {
		load[owners[id]] += w
		total += w
	}
	return float64(shardRows) / float64(n), float64(distinct) / float64(n),
		slices.Max(load) / (total / float64(mf.Shards))
}

// TestPartitionCoLocates holds the placement to what placing every bucket
// by its cluster group buys on harness-shaped models over 4 shards: a row
// is copied to few shards, its M keys resolve to few distinct shards, the
// sampled load stays near even, and re-partitioning at 1 and 4 cores
// reproduces fleet.json and every sub-model byte for byte.
func TestPartitionCoLocates(t *testing.T) {
	const (
		maxReplication  = 1.5
		maxOwnersPerRow = 1.5
		maxLoadSkew     = 1.10
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{40_000, 50_000} {
		mdl := harnessModel(t, n, 1)
		var manifests [2][]byte
		var subBytes [2][][]byte
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			subs, mf, err := Partition(mdl, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if manifests[i], err = json.Marshal(mf); err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				b, err := sub.Encode()
				if err != nil {
					t.Fatal(err)
				}
				subBytes[i] = append(subBytes[i], b)
			}
			if i > 0 {
				continue
			}
			repl, owners, skew := placementQuality(t, mdl, subs, mf)
			t.Logf("n=%d: replication %.3f, %.3f shards per row, load max/mean %.3f, %d overrides",
				n, repl, owners, skew, len(mf.Overrides))
			if repl > maxReplication {
				t.Errorf("n=%d: replication %.3f > %v", n, repl, maxReplication)
			}
			if owners > maxOwnersPerRow {
				t.Errorf("n=%d: a row's keys resolve to %.3f shards on average > %v", n, owners, maxOwnersPerRow)
			}
			if skew > maxLoadSkew {
				t.Errorf("n=%d: busiest shard carries %.3f × the mean sampled load > %v", n, skew, maxLoadSkew)
			}
		}
		if !bytes.Equal(manifests[0], manifests[1]) {
			t.Errorf("n=%d: re-partitioning on four cores wrote a different fleet.json than on one", n)
		}
		for s := range subBytes[0] {
			if !bytes.Equal(subBytes[0][s], subBytes[1][s]) {
				t.Errorf("n=%d: re-partitioning on four cores wrote a different shard %d sub-model than on one", n, s)
			}
		}
	}
}

// BenchmarkPartition times the partitioner — bucket index, weight
// estimate, group placement of every bucket, row marking and sub-model
// copies — on 50 000- and 200 000-row harness-shaped models (the larger is
// the fleet-read harness workload's size) split over 4 shards, and reports
// the placement's replication and the distinct shards a row's keys resolve
// to.
func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{50_000, 200_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			mdl := harnessModel(b, n, 1)
			b.ReportAllocs()
			b.ResetTimer()
			var subs []*model.Model
			var mf *Manifest
			for i := 0; i < b.N; i++ {
				var err error
				if subs, mf, err = Partition(mdl, 4, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			repl, owners, _ := placementQuality(b, mdl, subs, mf)
			b.ReportMetric(repl, "replication")
			b.ReportMetric(owners, "owners/row")
		})
	}
}
