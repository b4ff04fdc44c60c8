package main

import (
	"go/parser"
	"go/token"
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

func TestUnreadKnobs(t *testing.T) {
	literals := []string{"ddp.lsh.m", "usage: -set serve.batch.max=N", "repro/internal/core"}
	cases := []struct {
		name   string
		readme string
		want   []string
	}{
		{"read knobs", "# T\n## Configuration reference\n| `ddp.lsh.m` | 10 | layouts |\n| `serve.batch.max` / `-batch-max` | 64 | flush |\n", nil},
		{"deleted knob", "# T\n## Configuration reference\n| Knob | Default |\n|---|---|\n| `ddp.lsh.m` / `ddp.gone.knob` | — | both |\n", []string{"ddp.gone.knob"}},
		{"fields and flags are not keys", "# T\n## Configuration reference\n| `LocalEngine.Parallelism` / `-v` | x | y |\n", nil},
		{"first column only", "# T\n## Configuration reference\n| `ddp.lsh.m` | `0` | see `ddp.gone.knob` |\n", nil},
		{"other sections", "`ddp.gone.knob`\n## Configuration reference\nprose `ddp.gone.knob`\n## Next\n| `ddp.gone.knob` | x | y |\n", nil},
	}
	for _, c := range cases {
		if got := unreadKnobs(documentedKnobs(c.readme), literals); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: unread knobs = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestUndocumentedCounters(t *testing.T) {
	const src = `package p

const (
	CtrRows    = "job.rows"
	CtrBytes   = "job.bytes"
	ctrHidden  = "job.hidden"
	CtrNoDot   = "plain"
	CtrNumeric = 3
	ConfKnob   = "job.knob"
)
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	counters := collectConsts("p.go", f, "Ctr")
	cases := []struct {
		name string
		ops  string
		want []string
	}{
		{"every counter has a row", "| `job.rows` | rows |\n| `job.bytes` | bytes |\n", nil},
		{"missing row", "| `job.rows` | rows |\n", []string{"CtrBytes"}},
		{"prose is not a row", "job.rows and job.bytes, unquoted", []string{"CtrRows", "CtrBytes"}},
		{"a longer name is not the name", "| `job.rows.total` | `job.bytes` |\n", []string{"CtrRows"}},
	}
	for _, c := range cases {
		var got []string
		for _, k := range undocumentedConsts(c.ops, counters) {
			got = append(got, k.name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: undocumented counters = %q, want %q", c.name, got, c.want)
		}
	}
}
