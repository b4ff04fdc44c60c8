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
//   - README.md, DESIGN.md, EXPERIMENTS.md or OPERATIONS.md mention, inside
//     backticks, a `make <target>` the Makefile does not define or a
//     `cmd/<name>` directory that does not exist.
//
// The second check keeps the README's configuration reference in step with
// the code: adding a knob without documenting it breaks `make check` and CI.
// The third is the other direction: deleting a target or a binary without
// deleting its recipes breaks them too. Run from the module root:
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
	"sort"
	"strconv"
	"strings"
)

func main() {
	undocumented, knobs, err := scan(".")
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
	missing, err := undocumentedKnobs("README.md", knobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	if len(missing) > 0 {
		failed = true
		fmt.Fprintln(os.Stderr, "doccheck: knobs registered in code but missing from README.md's configuration reference:")
		for _, k := range missing {
			fmt.Fprintf(os.Stderr, "  %-28s (%s in %s)\n", k.value, k.name, k.file)
		}
		fmt.Fprintln(os.Stderr, "doccheck: add a `| `knob` | default | meaning |` row under \"Configuration reference\"")
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
	fmt.Printf("doccheck: all packages documented, all %d registered knobs in the README\n", len(knobs))
}

// knob is one exported Conf* string constant found in the tree.
type knob struct {
	name  string // Go identifier, e.g. ConfDeltaMax
	value string // knob name, e.g. ingest.delta.max
	file  string
}

// undocumentedKnobs returns the knobs whose value never appears backticked
// in the named markdown file.
func undocumentedKnobs(readme string, knobs []knob) ([]knob, error) {
	data, err := os.ReadFile(readme)
	if err != nil {
		return nil, err
	}
	text := string(data)
	var missing []knob
	for _, k := range knobs {
		if !strings.Contains(text, "`"+k.value+"`") {
			missing = append(missing, k)
		}
	}
	return missing, nil
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

// collectKnobs pulls exported Conf* string constants with dotted values out
// of one parsed file. The dot requirement skips unrelated Conf* constants
// that are not knob names.
func collectKnobs(path string, f *ast.File) []knob {
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
				if !strings.HasPrefix(name.Name, "Conf") || !name.IsExported() || i >= len(vs.Values) {
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
// Go package whose files all lack a package doc comment, plus every
// registered Conf* knob, sorted by knob name.
func scan(root string) ([]string, []knob, error) {
	// dir -> has at least one non-test file with a package doc
	hasDoc := make(map[string]bool)
	seen := make(map[string]bool)
	var knobs []knob
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
		knobs = append(knobs, collectKnobs(path, f)...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var out []string
	for dir := range seen {
		if !hasDoc[dir] {
			out = append(out, dir)
		}
	}
	sort.Strings(out)
	sort.Slice(knobs, func(i, j int) bool { return knobs[i].value < knobs[j].value })
	return out, knobs, nil
}
