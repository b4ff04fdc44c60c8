package dfsio

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

func TestSaveLoadPairs(t *testing.T) {
	fs := dfs.NewMemFS()
	records := []mapreduce.Pair{
		{Key: "a", Value: []byte{1, 2, 3}},
		{Key: "", Value: nil},
		{Key: "binary", Value: []byte{0, 255, 0, 10, 13}},
	}
	if err := SavePairs(fs, "job/out", records, 2); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("job/out/part-")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("parts = %v", names)
	}
	got, err := LoadPairs(fs, "job/out")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("loaded %d records", len(got))
	}
	for i := range records {
		if got[i].Key != records[i].Key || string(got[i].Value) != string(records[i].Value) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], records[i])
		}
	}
}

func TestSavePairsReplacesStaleParts(t *testing.T) {
	fs := dfs.NewMemFS()
	big := make([]mapreduce.Pair, 100)
	for i := range big {
		big[i] = mapreduce.Pair{Key: "k", Value: []byte{byte(i)}}
	}
	if err := SavePairs(fs, "x", big, 8); err != nil {
		t.Fatal(err)
	}
	small := big[:3]
	if err := SavePairs(fs, "x", small, 1); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPairs(fs, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("stale parts leaked: %d records", len(got))
	}
}

func TestEmptyRecordSet(t *testing.T) {
	fs := dfs.NewMemFS()
	if err := SavePairs(fs, "empty", nil, 4); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPairs(fs, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty set loaded %d records", len(got))
	}
	if _, err := LoadPairs(fs, "never-written"); err == nil {
		t.Fatal("want error for missing prefix")
	}
}

// Property: arbitrary binary records survive the save/load cycle through
// any shard count.
func TestPairsRoundTripProperty(t *testing.T) {
	fs := dfs.NewMemFS()
	f := func(keys []string, vals [][]byte, shards uint8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		records := make([]mapreduce.Pair, n)
		for i := 0; i < n; i++ {
			records[i] = mapreduce.Pair{Key: keys[i], Value: vals[i]}
		}
		if err := SavePairs(fs, "prop", records, int(shards%6)+1); err != nil {
			return false
		}
		got, err := LoadPairs(fs, "prop")
		if err != nil || len(got) != n {
			return false
		}
		for i := range records {
			if got[i].Key != records[i].Key || string(got[i].Value) != string(records[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadDataset(t *testing.T) {
	fs := dfs.NewMemFS()
	ds := dataset.Blobs("dsio", 200, 5, 3, 100, 2, 9)
	if err := SaveDataset(fs, "data/blobs", ds, 3); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(fs, "data/blobs", "dsio")
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ds.N() || got.Dim() != ds.Dim() {
		t.Fatalf("shape %dx%d", got.N(), got.Dim())
	}
	for i := range ds.Points {
		for j := range ds.Points[i].Pos {
			if got.Points[i].Pos[j] != ds.Points[i].Pos[j] {
				t.Fatalf("coordinate %d/%d changed", i, j)
			}
		}
		if got.Labels[i] != ds.Labels[i] {
			t.Fatalf("label %d changed", i)
		}
	}
}

func TestSaveLoadDatasetUnlabeled(t *testing.T) {
	fs := dfs.NewMemFS()
	ds := dataset.Spatial3D(150, 2)
	if err := SaveDataset(fs, "data/roads", ds, 2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(fs, "data/roads", "roads")
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels != nil {
		t.Fatal("unlabeled set grew labels")
	}
	if got.N() != 150 {
		t.Fatalf("N = %d", got.N())
	}
}

func TestDatasetThroughRealDFS(t *testing.T) {
	nn, err := dfs.NewNameNode("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Close()
	for i := 0; i < 2; i++ {
		dn, err := dfs.StartDataNode(nn.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer dn.Close()
	}
	c, err := dfs.NewClient(nn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.BlockSize = 4096 // force multi-block parts

	ds := dataset.Blobs("rpc-dsio", 300, 8, 2, 100, 2, 4)
	if err := SaveDataset(c, "staged/blobs", ds, 4); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(c, "staged/blobs", "rpc-dsio")
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ds.N() {
		t.Fatalf("N = %d", got.N())
	}
}

func TestLoadPartAndListParts(t *testing.T) {
	fs := dfs.NewMemFS()
	records := []mapreduce.Pair{
		{Key: "x", Value: []byte("1")},
		{Key: "y", Value: []byte("2")},
		{Key: "z", Value: []byte("3")},
	}
	if err := SavePairs(fs, "lp", records, 3); err != nil {
		t.Fatal(err)
	}
	parts, err := ListParts(fs, "lp")
	if err != nil || len(parts) != 3 {
		t.Fatalf("ListParts = %v, %v", parts, err)
	}
	var total int
	for _, name := range parts {
		recs, err := LoadPart(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
	}
	if total != 3 {
		t.Fatalf("parts hold %d records", total)
	}
	if _, err := ListParts(fs, "missing"); err == nil {
		t.Fatal("want error for missing prefix")
	}
	if _, err := LoadPart(fs, "missing/part-00000"); err == nil {
		t.Fatal("want error for missing part")
	}
}

func TestLoadPartCorrupt(t *testing.T) {
	fs := dfs.NewMemFS()
	if err := fs.Put("bad/part-00000", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPart(fs, "bad/part-00000"); err == nil {
		t.Fatal("want error for corrupt part")
	}
	if _, err := LoadPairs(fs, "bad"); err == nil {
		t.Fatal("want error for corrupt record set")
	}
	// A length prefix is a claim, not a fact: a part that announces more
	// bytes than it holds must fail before anything is allocated for them.
	for name, data := range map[string][]byte{
		"huge-key/part-00000":    {0xFF, 0xFF, 0xFF, 0xFF, 1},
		"huge-value/part-00000":  {1, 0, 0, 0, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 1},
		"short-value/part-00000": {1, 0, 0, 0, 'k', 4, 0, 0, 0, 'v', 'a'},
	} {
		if err := fs.Put(name, data); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadPart(fs, name)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: want error for a length past the end of the part", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: rejecting %d bytes allocated %d", name, len(data), grew)
		}
	}
}

func TestLoadDatasetErrors(t *testing.T) {
	fs := dfs.NewMemFS()
	// Point record with trailing junk.
	if err := SavePairs(fs, "junk", []mapreduce.Pair{{Value: []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF}}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(fs, "junk", "junk"); err == nil {
		t.Fatal("want error for trailing bytes")
	}
	if _, err := LoadDataset(fs, "absent", "absent"); err == nil {
		t.Fatal("want error for missing dataset")
	}
}

func TestVerifyPrefix(t *testing.T) {
	fs := dfs.NewMemFS()
	records := make([]mapreduce.Pair, 25)
	for i := range records {
		records[i] = mapreduce.Pair{Key: "k", Value: []byte{byte(i)}}
	}
	if err := SavePairs(fs, "v/in", records, 4); err != nil {
		t.Fatal(err)
	}
	parts, recs, err := VerifyPrefix(fs, "v/in")
	if err != nil {
		t.Fatal(err)
	}
	if parts != 4 || recs != 25 {
		t.Fatalf("VerifyPrefix = %d parts, %d records; want 4, 25", parts, recs)
	}
	// A structurally broken part must fail verification.
	if err := fs.Put("v/in/part-00002", []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyPrefix(fs, "v/in"); err == nil {
		t.Fatal("want error for broken part")
	}
	if _, _, err := VerifyPrefix(fs, "v/none"); err == nil {
		t.Fatal("want error for missing prefix")
	}
}
