// Package dfsio bridges the mini-DFS and the MapReduce framework: it
// persists record sets ([]mapreduce.Pair) and data sets as DFS files, the
// way Hadoop jobs stage inputs and outputs in HDFS. A part file is a plain
// sequence of mapreduce record frames (mapreduce.AppendFrame /
// DecodeFrames — the layout of spill run files and shuffle chunks), not
// CSV, so arbitrary binary values — the point codecs — round-trip exactly
// and every length read back is bounded by the bytes actually fetched.
//
// Layout: a record set is stored as numbered part files under a directory
// prefix ("path/part-00000", "path/part-00001", …), one part per shard,
// mirroring Hadoop's output layout. Loading concatenates parts in order.
package dfsio

import (
	"bytes"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/points"
)

// SaveModel stores an encoded cluster model artifact as a single DFS file.
// The artifact's own header checksum rides inside the blob, on top of the
// DFS's per-replica block checksums.
func SaveModel(fs dfs.FileSystem, name string, m *model.Model) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return fs.Put(name, data)
}

// LoadModel fetches and verifies a cluster model artifact from the DFS.
func LoadModel(fs dfs.FileSystem, name string) (*model.Model, error) {
	data, err := fs.Get(name)
	if err != nil {
		return nil, err
	}
	return model.Decode(data)
}

// partName formats the canonical shard file name.
func partName(prefix string, i int) string {
	return fmt.Sprintf("%s/part-%05d", prefix, i)
}

// SavePairs writes records as `shards` part files under prefix. Existing
// parts under the prefix are replaced; leftover higher-numbered parts from
// a previous larger run are deleted.
func SavePairs(fs dfs.FileSystem, prefix string, records []mapreduce.Pair, shards int) error {
	if shards <= 0 {
		shards = 1
	}
	// Delete stale parts first so a smaller rewrite cannot resurrect them.
	old, err := fs.List(prefix + "/part-")
	if err != nil {
		return err
	}
	for _, name := range old {
		if err := fs.Delete(name); err != nil {
			return err
		}
	}
	per := (len(records) + shards - 1) / shards
	if per == 0 {
		per = 1
	}
	part := 0
	for off := 0; off == 0 || off < len(records); off += per {
		end := off + per
		if end > len(records) {
			end = len(records)
		}
		var buf []byte
		for _, r := range records[off:end] {
			buf = mapreduce.AppendFrame(buf, r)
		}
		if err := fs.Put(partName(prefix, part), buf); err != nil {
			return err
		}
		part++
		if len(records) == 0 {
			break
		}
	}
	return nil
}

// LoadPairs reads every part file under prefix, in order.
func LoadPairs(fs dfs.FileSystem, prefix string) ([]mapreduce.Pair, error) {
	names, err := ListParts(fs, prefix)
	if err != nil {
		return nil, err
	}
	var records []mapreduce.Pair
	for _, name := range names {
		part, err := LoadPart(fs, name)
		if err != nil {
			return nil, err
		}
		records = append(records, part...)
	}
	return records, nil
}

// SaveDataset stores a data set under prefix: points as binary records
// (and, when labels exist, a parallel "<prefix>.labels" CSV file).
func SaveDataset(fs dfs.FileSystem, prefix string, ds *points.Dataset, shards int) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	records := make([]mapreduce.Pair, ds.N())
	for i, p := range ds.Points {
		records[i] = mapreduce.Pair{Value: points.EncodePoint(p)}
	}
	if err := SavePairs(fs, prefix, records, shards); err != nil {
		return err
	}
	if ds.Labels != nil {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, &points.Dataset{
			Name:   ds.Name,
			Points: labelCarrier(len(ds.Labels)),
			Labels: ds.Labels,
		}); err != nil {
			return err
		}
		return fs.Put(prefix+".labels", buf.Bytes())
	}
	return nil
}

// labelCarrier builds 1-D dummy points so labels can reuse the CSV codec.
func labelCarrier(n int) []points.Point {
	ps := make([]points.Point, n)
	for i := range ps {
		ps[i] = points.Point{ID: int32(i), Pos: points.Vector{0}}
	}
	return ps
}

// LoadDataset restores a data set saved by SaveDataset.
func LoadDataset(fs dfs.FileSystem, prefix, name string) (*points.Dataset, error) {
	records, err := LoadPairs(fs, prefix)
	if err != nil {
		return nil, err
	}
	ds := &points.Dataset{Name: name, Points: make([]points.Point, len(records))}
	for i, r := range records {
		p, rest, err := points.DecodePoint(r.Value)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("dfsio: %d trailing bytes in point record %d", len(rest), i)
		}
		ds.Points[i] = p
	}
	if raw, err := fs.Get(prefix + ".labels"); err == nil {
		carrier, err := dataset.ReadCSV(bytes.NewReader(raw), name, true)
		if err != nil {
			return nil, err
		}
		if carrier.N() != ds.N() {
			return nil, fmt.Errorf("dfsio: %d labels for %d points", carrier.N(), ds.N())
		}
		ds.Labels = carrier.Labels
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// LoadPart reads a single part file written by SavePairs — the unit a
// distributed map task consumes when a job's input is staged in the DFS.
func LoadPart(fs dfs.FileSystem, name string) ([]mapreduce.Pair, error) {
	data, err := fs.Get(name)
	if err != nil {
		return nil, err
	}
	records, err := mapreduce.DecodeFrames(nil, data)
	if err != nil {
		return nil, fmt.Errorf("dfsio: %s: %w", name, err)
	}
	return records, nil
}

// VerifyPrefix walks every part file under prefix and fully decodes it,
// returning the part and record counts. Because Get re-verifies block
// checksums end-to-end and the record framing is length-prefixed, a clean
// return means the staged data is structurally intact on every replica
// path the read took — the `mrd dfsadmin verify` integrity check.
func VerifyPrefix(fs dfs.FileSystem, prefix string) (parts, records int, err error) {
	names, err := ListParts(fs, prefix)
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		recs, err := LoadPart(fs, name)
		if err != nil {
			return parts, records, fmt.Errorf("dfsio: verify %s: %w", name, err)
		}
		parts++
		records += len(recs)
	}
	return parts, records, nil
}

// ListParts returns the part files under prefix, in shard order.
func ListParts(fs dfs.FileSystem, prefix string) ([]string, error) {
	names, err := fs.List(prefix + "/part-")
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("dfsio: no parts under %s", prefix)
	}
	return names, nil
}
