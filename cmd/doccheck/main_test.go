package main

import (
	"reflect"
	"testing"
)

func TestStaleRefs(t *testing.T) {
	targets := map[string]bool{"check": true, "bench-hot": true}
	cmds := map[string]bool{"ddp": true, "dpbench": true}
	cases := []struct {
		name string
		doc  string
		want []string
	}{
		{"live refs", "Run `make check`, then `go run ./cmd/ddp -h` (see `cmd/dpbench`).", nil},
		{"prose is not code", "make sure cmd/gone is not flagged outside backticks", nil},
		{"deleted target", "numbers from `make bench-gone N=1000`", []string{"make bench-gone"}},
		{"deleted binary", "driven by `cmd/goneload`", []string{"cmd/goneload"}},
		{"fenced block", "```sh\nmake bench-hot > old.txt\nmake bench-gone\ngo run ./cmd/gonebench\n```\n", []string{"make bench-gone", "cmd/gonebench"}},
		{"go builtin", "`buf := make([]byte, n)`", nil},
	}
	for _, c := range cases {
		if got := staleRefs(c.doc, targets, cmds); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: staleRefs = %q, want %q", c.name, got, c.want)
		}
	}
}
