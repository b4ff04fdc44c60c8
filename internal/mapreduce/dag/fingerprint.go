package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"

	"repro/internal/mapreduce"
)

// Fingerprinting rules. A fingerprint is a sha256 hex digest over a
// domain-separated byte stream:
//
//	source     "src"  ‖ name ‖ length-framed pairs        (content identity)
//	job node   "job"  ‖ name ‖ maps ‖ reduces ‖ sorted conf ‖ input fps
//	transform  "xfm"  ‖ name ‖ input fps
//
// A node's output dataset inherits the node's fingerprint. Code identity
// is the job/transform NAME (the same contract as the rpcmr job registry);
// changing what a name computes without renaming it poisons the cache.

func writeFrame(h hash.Hash, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func writeStr(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	io.WriteString(h, s)
}

// fingerprintPairs hashes a source dataset's name and full content.
func fingerprintPairs(name string, ps []mapreduce.Pair) string {
	h := sha256.New()
	writeStr(h, "src")
	writeStr(h, name)
	for _, p := range ps {
		writeStr(h, p.Key)
		writeFrame(h, p.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintNode hashes a node's structure plus its input fingerprints.
func fingerprintNode(n *node, inputFPs []string) string {
	h := sha256.New()
	if n.job != nil {
		writeStr(h, "job")
		writeStr(h, n.job.Name)
		writeStr(h, fmt.Sprintf("%d/%d", n.job.NumMaps, n.job.NumReduces))
		keys := make([]string, 0, len(n.job.Conf))
		for k := range n.job.Conf {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeStr(h, k)
			writeStr(h, n.job.Conf[k])
		}
	} else {
		writeStr(h, "xfm")
		writeStr(h, n.name)
	}
	for _, fp := range inputFPs {
		writeStr(h, fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// datasetFP returns (memoizing) the fingerprint of a non-node dataset.
// Node outputs are stamped by the scheduler after node fingerprinting.
func datasetFP(d *Dataset) string {
	if d.fp == "" {
		d.fp = fingerprintPairs(d.name, d.src)
	}
	return d.fp
}
