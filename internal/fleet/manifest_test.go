package fleet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// TestManifestKeyFormat pins the manifest's hold on the key encoding: a
// fleet.json written before binary LSH keys (no key_format, base-36 text
// overrides) is refused with an error that names the fix, a current one
// with an override that is not a well-formed key of this fleet's layouts is
// refused too, and re-running the partitioner reproduces fleet.json byte
// for byte.
func TestManifestKeyFormat(t *testing.T) {
	dir := t.TempDir()
	load := func(body string) error {
		t.Helper()
		path := filepath.Join(dir, "fleet.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := fleet.LoadManifest(path)
		return err
	}

	const old = `{
  "name": "blobs", "dim": 2, "n": 4000, "dc": 1.5, "clusters": 3,
  "lsh_seed": 7, "lsh_m": 10, "lsh_pi": 3, "lsh_w": 8.46,
  "shards": 4, "vnodes": 0,
  "overrides": {"0|a.-1k.2": 1, "3|-z.0.1f": 2}
}`
	err := load(old)
	if err == nil {
		t.Fatal("a manifest without key_format loaded; its text-keyed overrides would never match a binary key")
	}
	if !strings.Contains(err.Error(), "fleetctl partition") || !strings.Contains(err.Error(), "key_format") {
		t.Errorf("old-manifest error does not say what to do: %v", err)
	}

	current := func(overrides string) string {
		return `{"dim": 2, "n": 10, "dc": 1, "clusters": 1, "lsh_seed": 7, "lsh_m": 3, "lsh_pi": 3, "lsh_w": 2,
  "shards": 2, "vnodes": 0, "key_format": "` + fleet.KeyFormat + `", "overrides": {` + overrides + `}}`
	}
	if err := load(current(`"0|10.-56.2": 1, "2|0.0.-1": 0`)); err != nil {
		t.Fatalf("well-formed manifest refused: %v", err)
	}
	for _, bad := range []string{
		`"0|a.-1k.2": 1`, // base-36 slots: the old text form
		`"3|1.2.3": 1`,   // layout outside [0, M)
		`"0|1.2": 1`,     // π - 1 slots
		`"0|1.2.3.4": 1`, // π + 1 slots
		`"0|01.2.3": 1`,  // a second spelling of 0|1.2.3
		`"00010203": 1`,  // hex of the key bytes is not the text form
		`"0|1.2.3": 2`,   // shard outside [0, shards)
	} {
		if err := load(current(bad)); err == nil {
			t.Errorf("manifest with override %s loaded", bad)
		}
	}
	if err := load(strings.Replace(current(""), fleet.KeyFormat, "lsh-base36-0", 1)); err == nil {
		t.Error("manifest with an unknown key_format loaded")
	}

	mdl := trainModel(t, 4000, 3)
	var saved [2][]byte
	for i := range saved {
		_, mf, err := fleet.Partition(mdl, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(mf.Overrides) == 0 {
			t.Fatal("no overrides on a clustered model: the round trip below would prove nothing")
		}
		path := filepath.Join(dir, "fleet.json")
		if err := mf.Save(path); err != nil {
			t.Fatal(err)
		}
		if saved[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := fleet.LoadManifest(path); err != nil {
			t.Fatalf("the partitioner's own manifest does not load: %v", err)
		}
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Error("re-running the partitioner wrote a different fleet.json")
	}
	if !bytes.Contains(saved[0], []byte(`"key_format": "`+fleet.KeyFormat+`"`)) {
		t.Errorf("fleet.json does not record its key format:\n%s", saved[0])
	}
}
