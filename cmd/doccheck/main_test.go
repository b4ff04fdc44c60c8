package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestStaleRefs(t *testing.T) {
	targets := map[string]bool{"check": true, "bench-hot": true}
	cmds := map[string]map[string]bool{
		"ddp":                 {"h": true, "input": true, "halo": true, "k": true},
		"ddp knn":             {"h": true, "k": true, "out": true},
		"ddp gen":             {"h": true, "dataset": true, "o": true},
		"ddp worker":          {"h": true, "master": true},
		"ddp exp":             {"h": true, "scale": true, "seed": true},
		"fleetctl":            {"h": true},
		"fleetctl partition":  {"h": true},
		"fleetctl rollover":   {"h": true, "shards": true, "timeout": true},
		"examples/quickstart": {"h": true, "trace": true, "distributed": true},
	}
	subs := map[string]map[string]bool{
		"ddp":      {"knn": true, "gen": true, "worker": true, "exp": true},
		"fleetctl": {"partition": true, "rollover": true},
	}
	cases := []struct {
		name string
		doc  string
		want []string
	}{
		{"live refs", "Run `make check`, then `go run ./cmd/ddp -h` (see `cmd/ddp`).", nil},
		{"prose is not code", "make sure cmd/gone is not flagged outside backticks", nil},
		{"deleted target", "numbers from `make bench-gone N=1000`", []string{"make bench-gone"}},
		{"deleted binary", "driven by `cmd/goneload`", []string{"cmd/goneload"}},
		{"fenced block", "```sh\nmake bench-hot > old.txt\nmake bench-gone\ngo run ./cmd/gonebench\n```\n", []string{"make bench-gone", "cmd/gonebench"}},
		{"go builtin", "`buf := make([]byte, n)`", nil},
		{"live flags", "`ddp -input x.csv -halo`, `fleetctl rollover -shards \"h0|h0b,h1\" -timeout 1m`", nil},
		{"deleted flag", "`fleetctl rollover -routers host:9090`", []string{"fleetctl rollover -routers"}},
		{"deleted flag in go run", "```sh\ngo run ./cmd/ddp -input s2.csv -kernel gaussian -halo   # extensions\n```\n", []string{"ddp -kernel"}},
		{"not command lines", "`ddp-dc-sample -x`, `ddp -input x | grep -v y`, `ddp`, `mrd worker`, `go test -run X ./...`, `curl -s host/statsz`", nil},
		{"deleted binary's command line", "`dpbench -exp all -scale 4`, `mrd worker -gone`", []string{"dpbench", "mrd"}},
		{"live subcommands", "`ddp knn -k 10 -out n.csv`, `fleetctl -h rollover`, `ddp -h`, `ddp worker -master h:1`", nil},
		{"deleted subcommand", "`ddp kdist -k 4 -out curve.csv`", []string{"ddp kdist"}},
		{"deleted subcommand in go run", "```sh\ngo run ./cmd/ddp outliers -k 5   # top 20\n```\n", []string{"ddp outliers"}},
		{"flags are per subcommand", "`ddp knn -k 10`, `ddp gen -k 3 -o x.csv`, `ddp -k 3 -input x.csv`", []string{"ddp gen -k"}},
		{"subcommand's flag on the bare command", "`ddp -input x.csv -master h:1`", []string{"ddp -master"}},
		{"deleted binary's subcommand", "`go run ./cmd/mrd worker`", []string{"cmd/mrd"}},
		{"a deleted binary's flags on its successor", "`ddp exp -scale 4 -seed 42 fig10 table4`, `ddp exp -exp fig10`", []string{"ddp exp -exp"}},
		{"live example", "`go run ./examples/quickstart -trace t.jsonl -distributed` (see `examples/quickstart`)", nil},
		{"deleted example", "`examples/compare`, and ```sh\ngo run ./examples/halo\n```", []string{"examples/compare", "examples/halo"}},
		{"deleted example flag", "`go run ./examples/quickstart -engine rpcmr`", []string{"examples/quickstart -engine"}},
		{"an example is no command line", "`quickstart -gone`", nil},
	}
	for _, c := range cases {
		if got := staleRefs(c.doc, targets, cmds, subs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: staleRefs = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSubcommands reads a command's subcommands off its dispatch on
// os.Args[1], a switch or a comparison.
func TestSubcommands(t *testing.T) {
	const src = `package main

func main() {
	switch os.Args[1] {
	case "join", "merge":
	case strings.ToLower("x"):
	}
	switch os.Args[2] {
	case "nested":
	}
	if len(os.Args) < 2 || os.Args[1] != "worker" {
	}
	_ = os.Args[0] == "prog"
}
`
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string]bool{}
	subcommands(f, subs)
	if want := map[string]bool{"join": true, "merge": true, "worker": true}; !reflect.DeepEqual(subs, want) {
		t.Fatalf("subcommands = %v, want %v", subs, want)
	}
}

// TestFlagSets keys package-level flags to the bare command and a
// FlagSet's flags to the subcommand it is named after, per function.
func TestFlagSets(t *testing.T) {
	const src = `package main

func main() {
	input := flag.String("input", "", "")
	flag.BoolVar(&verbose, "v", false, "")
}

func runGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("o", "-", "")
	fs.Int64Var(&seed, "seed", 42, "")
}

func runKnn(args []string) {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	k := fs.Int("k", 10, "")
	_ = other.String("x", "", "")
}
`
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]map[string]bool{"": {}}
	flagNames(f, sets)
	want := map[string]map[string]bool{
		"":    {"input": true, "v": true},
		"gen": {"o": true, "seed": true},
		"knn": {"k": true},
	}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("flag sets = %v, want %v", sets, want)
	}
}

// TestStaleTests: a cited test, fuzz target or benchmark must be declared;
// a subtest path checks the function it runs under.
func TestStaleTests(t *testing.T) {
	tests := map[string]bool{"TestGolden": true, "FuzzManifest": true, "BenchmarkDecodeGroup": true}
	cases := []struct {
		name string
		doc  string
		want []string
	}{
		{"existing names", "pinned by `TestGolden` and `FuzzManifest`", nil},
		{"subtest", "`BenchmarkDecodeGroup/matrix` times it", nil},
		{"invented name", "see `TestNoSuchThing`", []string{"TestNoSuchThing"}},
		{"not a citation", "TestNoSuchThing, `go test -run TestNoSuchThing`, `Testing`, `TestDAG*`", nil},
	}
	for _, c := range cases {
		if got := staleTests(c.doc, tests); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: staleTests = %q, want %q", c.name, got, c.want)
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

func TestUnemittedCounters(t *testing.T) {
	literals := []string{"job.rows", "job.bytes", "prefix.job.gc.runs"}
	cases := []struct {
		name string
		ops  string
		want []string
	}{
		{"emitted counters", "| Counter | Meaning |\n|---|---|\n| `job.rows` / `job.bytes` | rows |\n", nil},
		{"deleted counter", "| Counter | Meaning |\n|---|---|\n| `job.rows` | rows |\n| `job.cache.hits` / `job.bytes` | gone |\n", []string{"job.cache.hits"}},
		{"indented table", "* **Jobs**:\n\n  | counter | meaning |\n  | --- | --- |\n  | `job.gone` | x |\n", []string{"job.gone"}},
		{"first column only", "| Counter | Meaning |\n|---|---|\n| `job.rows` | see `job.gone` |\n", nil},
		{"other tables", "| statsz field | meaning |\n| --- | --- |\n| `job.version` | x |\n", nil},
		{"prose", "`job.gone` is not a row\n", nil},
		{"a substring of a literal", "| Counter | Meaning |\n|---|---|\n| `job.gc.runs` | x |\n", nil},
	}
	for _, c := range cases {
		if got := unreadKnobs(documentedCounters(c.ops), literals); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: unemitted counters = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMissingFields(t *testing.T) {
	const src = `package p

type Master struct {
	MonitorInterval int
	Events          string
	lis             int
}

type Options struct{ Dir string }

type Alias = Master
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]map[string]bool{}
	structFields(f, fields)
	cases := []struct {
		name   string
		readme string
		want   []string
	}{
		{"declared fields", "# T\n## Configuration reference\n| `Master.MonitorInterval` / `-monitor` | 0 | monitor |\n| `Options.Dir` / `-dir` | — | d |\n", nil},
		{"deleted field", "# T\n## Configuration reference\n| `Master.GoneFactor` | 0 | gone |\n", []string{"Master.GoneFactor"}},
		{"unexported field", "# T\n## Configuration reference\n| `Master.lis` / `Master.Lis` | x | y |\n", []string{"Master.Lis"}},
		{"unknown type", "# T\n## Configuration reference\n| `Gone.Dir` | x | y |\n", []string{"Gone.Dir"}},
		{"knobs and flags are not fields", "# T\n## Configuration reference\n| `ddp.lsh.m` / `-v` | x | y |\n", nil},
		{"first column only", "# T\n## Configuration reference\n| `Options.Dir` | `Master.Gone` | see `Gone.Field` |\n", nil},
		{"other sections", "| `Gone.Dir` | x | y |\n## Configuration reference\nprose `Gone.Dir`\n## Next\n| `Gone.Dir` | x | y |\n", nil},
	}
	for _, c := range cases {
		if got := missingFields(documentedFields(c.readme), fields); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: missing fields = %q, want %q", c.name, got, c.want)
		}
	}
}

// parseTree parses in-memory sources keyed by their path under the module
// root.
func parseTree(t *testing.T, srcs map[string]string) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goFile{path: path, fset: fset, f: f})
	}
	return files
}

// TestDeadDecls: a declaration under internal/ needs a reference from a
// non-test file outside bench/ and outside itself, unless the exception
// list names it; a list entry must name a declaration nothing refers to.
func TestDeadDecls(t *testing.T) {
	const lib = `package p

type T struct{}

func (T) String() string { return "t" }

func (T) Listed() {}

func Used() T { return T{} }

func Dead() { Dead() }
`
	const user = "package main\n\nimport \"repro/internal/p\"\n\nfunc main() { p.Used() }\n"
	const caller = "package main\n\nimport \"repro/internal/p\"\n\nfunc main() { p.Used(); p.Dead() }\n"
	listed := map[string]string{"p.T.Listed": "test support"}
	dead := "internal/p/p.go:11: p.Dead is declared, but no non-test code outside bench/ refers to it"
	cases := []struct {
		name    string
		srcs    map[string]string
		allowed map[string]string
		want    []string
	}{
		{"called through a selector", map[string]string{"internal/p/p.go": lib, "cmd/x/main.go": caller}, listed, nil},
		{"uncalled exported func", map[string]string{"internal/p/p.go": lib, "cmd/x/main.go": user}, listed, []string{dead}},
		{"called only from a test", map[string]string{"internal/p/p.go": lib, "cmd/x/main.go": user,
			"internal/p/p_test.go": "package p\n\nfunc TestDead() { Dead() }\n"}, listed, []string{dead}},
		{"called only from bench/", map[string]string{"internal/p/p.go": lib, "cmd/x/main.go": user,
			"bench/main.go": caller}, listed, []string{dead}},
		{"uncalled unexported func", map[string]string{"internal/p/p.go": lib + "\nfunc dead() {}\n\nfunc live() {}\n\nvar _ = live\n",
			"cmd/x/main.go": caller + "\nfunc dead() {}\n\nvar _ = dead\n"}, listed,
			[]string{"internal/p/p.go:13: p.dead is declared, but no non-test code outside bench/ refers to it"}},
		{"unlisted method", map[string]string{"internal/p/p.go": lib, "cmd/x/main.go": caller}, nil,
			[]string{"internal/p/p.go:7: p.T.Listed is declared, but no non-test code outside bench/ refers to it"}},
		{"stale entries", map[string]string{"internal/p/p.go": lib, "cmd/x/main.go": caller},
			map[string]string{"p.T.Listed": "test support", "p.Used": "harness", "p.Gone": "harness"},
			[]string{"uncalled lists p.Used, which program code now refers to", "uncalled lists p.Gone, which is no longer declared"}},
	}
	for _, c := range cases {
		if got := deadDecls(parseTree(t, c.srcs), c.allowed); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: deadDecls = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestRepositoryDeclsCalled runs the dead-declaration rule on the module,
// so `go test ./...` enforces it as `make check` does.
func TestRepositoryDeclsCalled(t *testing.T) {
	tr, err := scan("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range deadDecls(tr.files, uncalled) {
		t.Error(msg)
	}
}

// TestOverBudget: a doc at its pinned line, byte and "PR n" counts passes,
// and one line, one byte or one mention more fails, naming the count and the
// pin.
func TestOverBudget(t *testing.T) {
	doc := "intro\nsince PR 3 and PR 12\n"
	if msgs := overBudget("D.md", doc, 2, len(doc), 2); len(msgs) != 0 {
		t.Fatalf("a doc at its pins: %v", msgs)
	}
	more := doc + "PR 7, then PR7 (no mention)\n"
	msgs := overBudget("D.md", more, 2, len(more)-1, 2)
	if len(msgs) != 3 || !strings.Contains(msgs[0], "D.md has 3 lines, over its pinned 2") ||
		!strings.Contains(msgs[1], fmt.Sprintf("D.md has %d bytes, over its pinned %d", len(more), len(more)-1)) ||
		!strings.Contains(msgs[2], `D.md has 3 "PR n" mentions, over its pinned 2`) {
		t.Fatalf("a doc one line, one byte and one mention over: %v", msgs)
	}
	joined := strings.ReplaceAll(doc, "\n", " ")
	if msgs := overBudget("D.md", joined+"x", 2, len(doc), 2); len(msgs) != 1 || !strings.Contains(msgs[0], "bytes, over its pinned") {
		t.Fatalf("lines joined to meet the line pin, one byte over: %v", msgs)
	}
}

// TestDesignCites: a `DESIGN.md "Title"` citation resolves to a #-heading
// with that title or to a line opening with it as a bold or italic run-in
// label, across line breaks; any other title is reported.
func TestDesignCites(t *testing.T) {
	design := "# DESIGN\n\n## Pair ownership\n\n**Base filter.** While it stages R, …\n" +
		"*The radius rule, and its reach.* Behind Run, …\n**Layout count:** …\nA **Ties** mention mid-line.\n"
	cases := []struct {
		name, text string
		want       []string
	}{
		{"heading", `see DESIGN.md "Pair ownership".`, nil},
		{"heading across a comment's line break", "(DESIGN.md \"Pair\nownership\")", nil},
		{"bold label", `DESIGN.md "Base filter" and DESIGN.md "Layout count"`, nil},
		{"italic label", `DESIGN.md "The radius rule"`, nil},
		{"missing title", `DESIGN.md "Shuffle wire protocol"`, []string{"Shuffle wire protocol"}},
		{"a label's prefix", `DESIGN.md "Base"`, []string{"Base"}},
		{"a mid-line bold span", `DESIGN.md "Ties"`, []string{"Ties"}},
		{"a heading's prefix", `DESIGN.md "Pair"`, []string{"Pair"}},
	}
	for _, c := range cases {
		if got := designCites(c.text, design); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: designCites = %q, want %q", c.name, got, c.want)
		}
	}
}
