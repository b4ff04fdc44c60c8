package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMain runs the command itself when the test binary is started as
// clusterd by a test, and the tests otherwise.
func TestMain(m *testing.M) {
	if os.Getenv("CLUSTERD_TEST_AS_COMMAND") == "1" {
		os.Args = append([]string{"clusterd"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseShards(t *testing.T) {
	cases := []struct {
		list string
		want [][]string
		err  bool
	}{
		{"h0", [][]string{{"h0"}}, false},
		{"h0|h0b,h1", [][]string{{"h0", "h0b"}, {"h1"}}, false},
		{" h0 | h0b , h1 ", [][]string{{"h0", "h0b"}, {"h1"}}, false},
		{"h0|,h1", [][]string{{"h0"}, {"h1"}}, false},
		{"|h0||h0b,h1|", [][]string{{"h0", "h0b"}, {"h1"}}, false},
		{"h0,,h1", nil, true},
		{"h0,h1,", nil, true},
		{"h0, | ,h1", nil, true},
		{"", nil, true},
	}
	for _, c := range cases {
		got, err := parseShards(c.list)
		if (err != nil) != c.err || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseShards(%q) = %q, %v; want %q, error %v", c.list, got, err, c.want, c.err)
		}
	}
}

// TestNegativeFlagsRefused: a negative serving flag or an unknown
// -precision exits 2 before the model is read or a port opened, where 0 and
// -shard -1 keep their meaning (and reach the missing model, exit 1); so
// does a negative `clusterd partition -vnodes`, where -vnodes 0 reaches the
// model.
func TestNegativeFlagsRefused(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "missing.ddpm")
	serving := func(flags ...string) []string {
		return append([]string{"-model", model, "-listen", "127.0.0.1:0"}, flags...)
	}
	partition := func(vnodes string) []string {
		return []string{"partition", "-model", model, "-shards", "2", "-out", filepath.Join(dir, "fleet"), "-vnodes", vnodes}
	}
	for _, c := range []struct {
		flags []string
		code  int
	}{
		{serving("-workers", "-3"), 2},
		{serving("-ingest-id-stride", "-5"), 2},
		{serving("-ingest-id-base", "-7"), 2},
		{serving("-compact-interval", "-1s"), 2},
		{serving("-shard", "-5"), 2},
		{serving("-precision", "f32"), 2},
		{serving("-shard", "-1", "-workers", "0", "-ingest-id-stride", "0", "-ingest-id-base", "0", "-compact-interval", "0"), 1},
		{partition("-5"), 2},
		{partition("0"), 1},
	} {
		cmd := exec.Command(os.Args[0], c.flags...)
		cmd.Env = append(os.Environ(), "CLUSTERD_TEST_AS_COMMAND=1")
		out, err := cmd.CombinedOutput()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != c.code {
			t.Errorf("clusterd %s: %v %q, want exit %d", strings.Join(c.flags, " "), err, out, c.code)
		}
	}
}

// TestRolloverChecksShardsFirst: a -shards list with a shard of no
// replicas fails before rollover compacts anything, even where the entries
// before it are valid.
func TestRolloverChecksShardsFirst(t *testing.T) {
	var compacts atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/compact" {
			compacts.Add(1)
		}
	}))
	defer shard.Close()
	addr := strings.TrimPrefix(shard.URL, "http://")
	cmd := exec.Command(os.Args[0], "rollover", "-shards", addr+",,"+addr)
	cmd.Env = append(os.Environ(), "CLUSTERD_TEST_AS_COMMAND=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(string(out), "shard 1 has no replicas") {
		t.Fatalf("clusterd rollover: %v %q, want exit 1 naming shard 1", err, out)
	}
	if n := compacts.Load(); n != 0 {
		t.Fatalf("rollover sent %d /compact requests before refusing the list", n)
	}
}
