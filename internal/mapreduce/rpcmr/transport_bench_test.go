package rpcmr

import (
	"testing"

	"repro/internal/mapreduce"
)

// BenchmarkShuffleTransport measures the reduce-side fetch — the framed-TCP
// streaming transport — over one partition at several sizes. Throughput
// (SetBytes) is measured against the framed payload volume, i.e. the logical
// bytes a reducer needs. Run with:
//
//	make bench-hot
func BenchmarkShuffleTransport(b *testing.B) {
	sizes := []struct {
		name    string
		n       int
		valSize int
	}{
		{"1MB", 4 << 10, 240},
		{"16MB", 64 << 10, 240},
		{"64MB", 256 << 10, 240},
	}
	for _, sz := range sizes {
		pairs := textPairs(sz.n, sz.valSize)
		var framed int64
		for _, p := range pairs {
			framed += int64(len(mapreduce.AppendFrame(nil, p)))
		}
		b.Run(sz.name, func(b *testing.B) {
			ws := startPeers(b, 2)
			seedStore(ws[0], 1, 0, [][]mapreduce.Pair{pairs})
			b.SetBytes(framed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := ws[1].fetchStream(ws[0].addr, 1, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != sz.n {
					b.Fatalf("fetched %d pairs, want %d", len(got), sz.n)
				}
			}
		})
	}
}
