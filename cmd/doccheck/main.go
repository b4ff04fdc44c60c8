// Command doccheck is the documentation gate wired into `make check`. It
// fails the build when:
//
//   - any package in the repository lacks a package-level doc comment
//     (a package passes if at least one non-test .go file carries a doc
//     comment on the package clause), or
//   - any configuration knob registered in code — an exported `Conf*`
//     string constant with a dotted value, e.g. `ConfDeltaMax =
//     "ingest.delta.max"` — has no row in README.md's configuration
//     reference (the knob's name must appear backticked in README.md), or
//   - a lower-case dotted key backticked in the first column of a table of
//     that reference occurs in no string literal of any non-test .go file —
//     the README documents a knob nothing reads, or
//   - any counter registered in code — an exported `Ctr*` string constant
//     with a dotted value in a non-test file, e.g. `CtrShed = "serve.shed"`
//     — has no row in OPERATIONS.md (its name must appear backticked
//     there), or
//   - README.md, DESIGN.md, EXPERIMENTS.md or OPERATIONS.md mention, inside
//     backticks, a `make <target>` the Makefile does not define or a
//     `cmd/<name>` directory that does not exist.
//
// The second check keeps the README's configuration reference in step with
// the code: adding a knob without documenting it breaks `make check` and CI.
// The third is its reverse: deleting a knob without deleting its row breaks
// them too, as the fifth does for a deleted target or binary. The fourth
// does for an operator's counters what the second does for knobs. Run from
// the module root:
//
//	go run ./cmd/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	undocumented, knobs, counters, literals, err := scan(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	failed := false
	if len(undocumented) > 0 {
		failed = true
		fmt.Fprintln(os.Stderr, "doccheck: packages without a package doc comment:")
		for _, dir := range undocumented {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	if missing := undocumentedConsts(string(readme), knobs); len(missing) > 0 {
		failed = true
		fmt.Fprintln(os.Stderr, "doccheck: knobs registered in code but missing from README.md's configuration reference:")
		for _, k := range missing {
			fmt.Fprintf(os.Stderr, "  %-28s (%s in %s)\n", k.value, k.name, k.file)
		}
		fmt.Fprintln(os.Stderr, "doccheck: add a `| `knob` | default | meaning |` row under \"Configuration reference\"")
	}
	documented := documentedKnobs(string(readme))
	for _, key := range unreadKnobs(documented, literals) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: README documents knob %s, which no code reads\n", key)
	}
	ops, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	for _, c := range undocumentedConsts(string(ops), counters) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: counter %s (%s) has no OPERATIONS.md row\n", c.value, c.name)
	}
	targets, cmds, err := definedRefs("Makefile", "cmd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(1)
		}
		for _, ref := range staleRefs(string(data), targets, cmds) {
			failed = true
			fmt.Fprintf(os.Stderr, "doccheck: %s mentions `%s`, which no longer exists\n", doc, ref)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("doccheck: all packages documented, all %d registered knobs in the README, all %d README knob keys read by code, all %d counters in OPERATIONS.md\n", len(knobs), len(documented), len(counters))
}

// knob is one exported Conf* (knob) or Ctr* (counter) string constant found
// in the tree.
type knob struct {
	name  string // Go identifier, e.g. ConfDeltaMax
	value string // knob or counter name, e.g. ingest.delta.max
	file  string
}

// undocumentedConsts returns the constants whose value never appears
// backticked in doc.
func undocumentedConsts(doc string, consts []knob) []knob {
	var missing []knob
	for _, k := range consts {
		if !strings.Contains(doc, "`"+k.value+"`") {
			missing = append(missing, k)
		}
	}
	return missing
}

// confKey matches a lower-case dotted knob name, e.g. ddp.lsh.m.
var confKey = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9]+)+$`)

// documentedKnobs returns the lower-case dotted keys backticked in the first
// column of the tables under the README's "Configuration reference" heading
// (struct fields, flags and counters named there are not keys).
func documentedKnobs(readme string) []string {
	_, section, _ := strings.Cut(readme, "\n## Configuration reference")
	section, _, _ = strings.Cut(section, "\n## ")
	var keys []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue // not a table row
		}
		for i, span := range strings.Split(cells[1], "`") {
			if i%2 == 1 && confKey.MatchString(span) {
				keys = append(keys, span)
			}
		}
	}
	return keys
}

// unreadKnobs returns the keys that occur inside none of the string
// literals: a knob the README documents and no code can read.
func unreadKnobs(keys, literals []string) []string {
	var unread []string
	for _, key := range keys {
		if !slices.ContainsFunc(literals, func(lit string) bool { return strings.Contains(lit, key) }) {
			unread = append(unread, key)
		}
	}
	return unread
}

var (
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeRef    = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	cmdRef     = regexp.MustCompile(`\bcmd/([a-z][a-z0-9]*)`)
)

// definedRefs returns the targets the Makefile defines and the command
// directories that exist under cmdDir.
func definedRefs(makefile, cmdDir string) (targets, cmds map[string]bool, err error) {
	data, err := os.ReadFile(makefile)
	if err != nil {
		return nil, nil, err
	}
	targets = make(map[string]bool)
	for _, m := range makeTarget.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		return nil, nil, err
	}
	cmds = make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			cmds[e.Name()] = true
		}
	}
	return targets, cmds, nil
}

// staleRefs returns every `make <target>` and `cmd/<name>` that doc mentions
// inside backticks (inline code or a fenced block — prose is skipped, so
// "make sure" is not a target) but that targets / cmds do not hold.
func staleRefs(doc string, targets, cmds map[string]bool) []string {
	var stale []string
	for i, span := range strings.Split(doc, "`") {
		if i%2 == 0 {
			continue // outside backticks
		}
		for _, m := range makeRef.FindAllStringSubmatch(span, -1) {
			if !targets[m[1]] {
				stale = append(stale, m[0])
			}
		}
		for _, m := range cmdRef.FindAllStringSubmatch(span, -1) {
			if !cmds[m[1]] {
				stale = append(stale, m[0])
			}
		}
	}
	return stale
}

// collectConsts pulls exported string constants named prefix* (Conf for
// knobs, Ctr for counters) with dotted values out of one parsed file. The
// dot requirement skips unrelated constants that are not knob or counter
// names.
func collectConsts(path string, f *ast.File, prefix string) []knob {
	var out []knob
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, prefix) || !name.IsExported() || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				val, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.Contains(val, ".") {
					continue
				}
				out = append(out, knob{name: name.Name, value: val, file: path})
			}
		}
	}
	return out
}

// scan walks the tree under root and returns the directories containing a
// Go package whose files all lack a package doc comment, every registered
// Conf* knob and Ctr* counter, each sorted by name, and every dotted string
// literal of the non-test files.
func scan(root string) ([]string, []knob, []knob, []string, error) {
	// dir -> has at least one non-test file with a package doc
	hasDoc := make(map[string]bool)
	seen := make(map[string]bool)
	var knobs, counters []knob
	var literals []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		seen[dir] = true
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasDoc[dir] = true
		}
		knobs = append(knobs, collectConsts(path, f, "Conf")...)
		counters = append(counters, collectConsts(path, f, "Ctr")...)
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if val, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(val, ".") {
					literals = append(literals, val)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var out []string
	for dir := range seen {
		if !hasDoc[dir] {
			out = append(out, dir)
		}
	}
	sort.Strings(out)
	sort.Slice(knobs, func(i, j int) bool { return knobs[i].value < knobs[j].value })
	sort.Slice(counters, func(i, j int) bool { return counters[i].value < counters[j].value })
	return out, knobs, counters, literals, nil
}
