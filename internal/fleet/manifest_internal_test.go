package fleet

import (
	"strings"
	"testing"
)

// manifestJSON is a valid fleet.json with the given fields spliced in
// (later keys win in encoding/json).
func manifestJSON(extra string) string {
	return `{"dim":2,"lsh_seed":7,"lsh_m":3,"lsh_pi":2,"lsh_w":4,"shards":3,"vnodes":0,"key_format":"` + KeyFormat + `"` + extra + `}`
}

// TestManifestBounds: a fleet.json whose ring or layouts would outgrow the
// package's bounds is refused before anything is built — however the size
// is spread over its factors, and at products that overflow an int — while
// one exactly at the bounds still routes.
func TestManifestBounds(t *testing.T) {
	for _, extra := range []string{
		`,"shards":1099511627776,"vnodes":1024`,
		`,"shards":2,"vnodes":1099511627776`,
		`,"shards":4611686018427387904,"vnodes":4`,
		`,"shards":1025`,
		`,"dim":1099511627776`,
		`,"lsh_pi":1099511627776`,
		`,"dim":16385,"lsh_m":64`,
	} {
		if _, err := parseManifest([]byte(manifestJSON(extra))); err == nil {
			t.Errorf("manifest with %s validated", extra)
		}
	}
	mf, err := parseManifest([]byte(manifestJSON(`,"shards":1024,"dim":1024,"lsh_m":64,"lsh_pi":16`)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := mf.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if o := p.Owner("key"); o < 0 || o >= mf.Shards {
		t.Fatalf("owner %d of %d shards", o, mf.Shards)
	}
}

// FuzzManifest feeds arbitrary bytes to the fleet.json reader, and a
// manifest it accepts to Placement and to Owner of a few keys — the keys
// of two points under its layouts, its overrides' keys, and two that are
// no key at all. Either an error, or every owner in [0, Shards); never a
// panic, and no allocation a manifest's numbers alone can make unbounded.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(manifestJSON(``)))
	f.Add([]byte(manifestJSON(`,"overrides":{"0|1.2":2,"2|-1.0":0}`)))
	f.Add([]byte(manifestJSON(`,"overrides":{"0|1.2":3}`)))
	f.Add([]byte(manifestJSON(`,"shards":1099511627776,"vnodes":1024`)))
	f.Add([]byte(manifestJSON(`,"vnodes":1099511627776`)))
	f.Add([]byte(manifestJSON(`,"dim":1099511627776,"lsh_pi":3`)))
	f.Add([]byte(manifestJSON(`,"lsh_m":65`)))
	f.Add([]byte(manifestJSON(`,"key_format":""`)))
	f.Add([]byte(`{"shards":-1}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, b []byte) {
		mf, err := parseManifest(b)
		if err != nil {
			return
		}
		p, err := mf.Placement()
		if err != nil {
			t.Fatalf("a validated manifest has no placement: %v", err)
		}
		l := mf.Layouts()
		keys := []string{"", strings.Repeat("\xff", 9)}
		for _, v := range []float64{0, 1e3} {
			pt := make([]float64, mf.Dim)
			for i := range pt {
				pt[i] = v + float64(i)
			}
			keys = append(keys, l.Keys(pt)...)
		}
		for text := range mf.Overrides {
			keys = append(keys, text)
		}
		ov, err := mf.overridesByKey()
		if err != nil {
			t.Fatalf("a validated manifest's overrides do not parse: %v", err)
		}
		for key := range ov {
			keys = append(keys, key)
		}
		for _, key := range keys {
			if o := p.Owner(key); o < 0 || o >= mf.Shards {
				t.Fatalf("key %q: owner %d of %d shards", key, o, mf.Shards)
			}
		}
	})
}
