package fleet

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/lsh"
	"repro/internal/model"
)

// Manifest describes one partitioned fleet: everything a router needs to
// route queries — and verify shards — without loading any sub-model. The
// partitioner writes it as fleet.json next to the shard artifacts; routerd
// loads it at startup. LSH layouts and the consistent-hash ring are both
// regenerated deterministically from these parameters, so partitioner and
// router agree on bucket ownership by construction.
type Manifest struct {
	// Name labels the source model (diagnostic only).
	Name string `json:"name"`
	// Dim is the point dimensionality; the router validates queries
	// against it with the exact single-node error strings.
	Dim int `json:"dim"`
	// N is the source model's point count (before partitioning).
	N int `json:"n"`
	// Dc is the training run's cutoff distance.
	Dc float64 `json:"dc"`
	// Clusters is the cluster count (peaks replicate to every shard).
	Clusters int `json:"clusters"`
	// Seed/M/Pi/W are the LSH layout parameters (see model.Params).
	Seed int64   `json:"lsh_seed"`
	M    int     `json:"lsh_m"`
	Pi   int     `json:"lsh_pi"`
	W    float64 `json:"lsh_w"`
	// Shards is the fleet width; sub-model s is shard-<s>.ddpm.
	Shards int `json:"shards"`
	// VNodes is the virtual-node count per shard on the consistent-hash
	// ring (0 reads as DefaultVNodes).
	VNodes int `json:"vnodes"`
	// KeyFormat names the encoding of the bucket keys this fleet was placed
	// by — the bytes the ring hashes — and so which build's shards and
	// router agree with it. A manifest written before the field existed
	// placed rows by the old text keys: loaded as is, the ring would own
	// different buckets and no override would ever match, so it is refused.
	KeyFormat string `json:"key_format"`
	// Overrides pins heavy buckets to explicit shards. Consistent hashing
	// balances the *key space*, but LSH bucket sizes are skewed — a few
	// cluster-core buckets can carry most of the rows, and whichever shard
	// their keys happen to hash to becomes the fleet's hot spot. The
	// partitioner, which estimates every bucket's scan cost by sampling,
	// greedily assigns the heavy buckets to the lightest shard and records here only the
	// ones that differ from their ring owner; the ring covers the long
	// tail, where statistical balance is enough. Keys are in the text form
	// lsh.KeyString prints ("m|s1.s2.s3"); raw key bytes are not JSON.
	Overrides map[string]int `json:"overrides,omitempty"`
}

// KeyFormat is the Manifest.KeyFormat this build writes and accepts: the
// binary LSH keys of internal/lsh (layout uvarint, then zig-zag varint
// slots).
const KeyFormat = "lsh-varint-1"

// Validate checks the manifest invariants.
func (mf *Manifest) Validate() error {
	switch {
	case mf.Dim < 1:
		return fmt.Errorf("fleet: manifest dim %d < 1", mf.Dim)
	case mf.Shards < 1:
		return fmt.Errorf("fleet: manifest shards %d < 1", mf.Shards)
	case mf.M < 1 || mf.M > 64:
		// Routing masks are uint64 bitmaps, one bit per layout.
		return fmt.Errorf("fleet: manifest lsh_m %d outside [1,64]", mf.M)
	case mf.Pi < 1:
		return fmt.Errorf("fleet: manifest lsh_pi %d < 1", mf.Pi)
	case mf.W <= 0:
		return fmt.Errorf("fleet: manifest lsh_w %v <= 0", mf.W)
	case mf.VNodes < 0:
		return fmt.Errorf("fleet: manifest vnodes %d < 0", mf.VNodes)
	}
	if mf.KeyFormat != KeyFormat {
		return fmt.Errorf("fleet: manifest key_format %q, this build routes by %q: the fleet was partitioned by a build with different LSH keys; re-run `fleetctl partition` on the full model and restart the shards from its output",
			mf.KeyFormat, KeyFormat)
	}
	_, err := mf.overridesByKey()
	return err
}

// overridesByKey checks every override — a well-formed key of this fleet's
// layouts, pinned to a shard that exists — and returns them keyed by key
// bytes, the form routing looks them up by.
func (mf *Manifest) overridesByKey() (map[string]int, error) {
	byKey := make(map[string]int, len(mf.Overrides))
	for text, s := range mf.Overrides {
		key, err := lsh.ParseKey(text, mf.M, mf.Pi)
		if err != nil {
			return nil, fmt.Errorf("fleet: manifest override: %w", err)
		}
		if s < 0 || s >= mf.Shards {
			return nil, fmt.Errorf("fleet: manifest override %q -> shard %d outside [0,%d)", text, s, mf.Shards)
		}
		byKey[key] = s
	}
	return byKey, nil
}

// Params returns the LSH parameters as the model package type.
func (mf *Manifest) Params() model.Params {
	return model.Params{Seed: mf.Seed, M: mf.M, Pi: mf.Pi, W: mf.W}
}

// Layouts regenerates the LSH layouts the fleet buckets by.
func (mf *Manifest) Layouts() *lsh.Layouts {
	return lsh.NewLayouts(mf.Dim, mf.M, mf.Pi, mf.W, mf.Seed)
}

// Ring builds the fleet's consistent-hash ring.
func (mf *Manifest) Ring() (*Ring, error) {
	return NewRing(mf.Shards, mf.VNodes)
}

// Placement resolves bucket-key ownership for this fleet: the manifest's
// explicit heavy-bucket overrides first, the consistent-hash ring for the
// long tail. Partitioner and router both route through a Placement built
// from the same manifest, so they agree on every key by construction.
type Placement struct {
	ring      *Ring
	overrides map[string]int // by key bytes, not by the manifest's text form
}

// Placement builds the fleet's key-ownership resolver.
func (mf *Manifest) Placement() (*Placement, error) {
	ring, err := mf.Ring()
	if err != nil {
		return nil, err
	}
	overrides, err := mf.overridesByKey()
	if err != nil {
		return nil, err
	}
	return &Placement{ring: ring, overrides: overrides}, nil
}

// Owner returns the shard owning a bucket key.
func (p *Placement) Owner(key string) int {
	if s, ok := p.overrides[key]; ok {
		return s
	}
	return p.ring.Owner(key)
}

// Save writes the manifest as indented JSON.
func (mf *Manifest) Save(path string) error {
	if err := mf.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadManifest reads and validates a fleet.json.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf Manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		return nil, fmt.Errorf("fleet: manifest %s: %w", path, err)
	}
	if err := mf.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: manifest %s: %w", path, err)
	}
	return &mf, nil
}
