// Command doccheck is the documentation gate wired into `make check`. It
// fails the build when:
//
//   - any package in the repository lacks a package-level doc comment
//     (a package passes if at least one non-test .go file carries a doc
//     comment on the package clause), or
//   - any configuration knob registered in code — an exported `Conf*`
//     string constant with a dotted value, e.g. `ConfWALFsync =
//     "ingest.wal.fsync"` — has no row in README.md's configuration
//     reference (the knob's name must appear backticked in README.md), or
//   - a lower-case dotted key backticked in the first column of a table of
//     that reference occurs in no string literal of any non-test .go file —
//     the README documents a knob nothing reads, or
//   - a `Type.Field` backticked in the first column of a table of that
//     reference names no exported field of a struct type Type declared in a
//     non-test .go file — the README documents a setting that is gone, or
//   - any counter registered in code — an exported `Ctr*` string constant
//     with a dotted value in a non-test file, e.g. `CtrShed = "serve.shed"`
//     — has no row in OPERATIONS.md (its name must appear backticked
//     there), or
//   - a lower-case dotted name backticked in the first column of an
//     OPERATIONS.md counter table (first header cell "Counter") occurs in no
//     string literal of any non-test .go file — the runbook documents a
//     counter nothing emits, or
//   - README.md, DESIGN.md, EXPERIMENTS.md or OPERATIONS.md mention, inside
//     backticks, a `make <target>` the Makefile does not define, a
//     `cmd/<name>` or `examples/<name>` directory that does not exist, a
//     `-flag` on a command line — `<name> [subcommand] -flag …` or `go run
//     ./cmd/<name> … -flag` (`./examples/<name>` alike) — that the command
//     (a subcommand: the flag.NewFlagSet named after it) does not define,
//     or, for a command that dispatches on os.Args[1], a first argument on
//     such a line that is neither a flag nor one of its subcommands, or a
//     flagged `<name> -flag …` line whose name is no command, no example
//     and no tool the docs may cite (go, make, bash, curl, kill), or
//   - those four or bench/README.md cite a test, fuzz target or benchmark
//     name as a whole backticked span (`Name/subtest` cites Name) that no
//     _test.go file declares, or
//   - a package-level declaration in a non-test file under internal/ has no
//     reference from a non-test file outside bench/ (deadDecls has the
//     rule), unless the uncalled list names it with its reason — or that
//     list names a declaration that is gone or that program code now uses,
//     or
//   - a comment in a non-test .go file, or README.md, OPERATIONS.md,
//     EXPERIMENTS.md or bench/README.md, cites a section as DESIGN.md then
//     its title in double quotes, and DESIGN.md has neither a #-heading
//     with that title nor a line opening with it as a run-in label, `**` or
//     `*` then the title (designCites has the rule), or
//   - DESIGN.md runs past designMaxLines lines, designMaxBytes bytes or
//     designMaxPRs "PR n" mentions, the ratchet that keeps a cut design doc
//     from regrowing.
//
// The second check keeps the README's configuration reference in step with
// the code: adding a knob without documenting it breaks `make check` and CI.
// The third and fourth are its reverse: deleting a knob or a struct field
// without deleting its row breaks them too, as the last two do for a
// deleted target, binary, flag or test. The fifth does for an operator's
// counters what the second does for knobs, and the sixth is its reverse. Run
// from the module root:
//
//	go run ./cmd/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

func main() {
	t, err := scan(".")
	fatal(err)
	failed := false
	if len(t.undocumented) > 0 {
		failed = true
		fmt.Fprintln(os.Stderr, "doccheck: packages without a package doc comment:")
		for _, dir := range t.undocumented {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	readme := readDoc("README.md")
	if missing := undocumentedConsts(readme, t.knobs); len(missing) > 0 {
		failed = true
		fmt.Fprintln(os.Stderr, "doccheck: knobs registered in code but missing from README.md's configuration reference:")
		for _, k := range missing {
			fmt.Fprintf(os.Stderr, "  %-28s (%s in %s)\n", k.value, k.name, k.file)
		}
		fmt.Fprintln(os.Stderr, "doccheck: add a `| `knob` | default | meaning |` row under \"Configuration reference\"")
	}
	documented := documentedKnobs(readme)
	for _, key := range unreadKnobs(documented, t.literals) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: README documents knob %s, which no code reads\n", key)
	}
	settings := documentedFields(readme)
	for _, f := range missingFields(settings, t.fields) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: README documents setting %s, which names no exported struct field\n", f)
	}
	ops := readDoc("OPERATIONS.md")
	for _, c := range undocumentedConsts(ops, t.counters) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: counter %s (%s) has no OPERATIONS.md row\n", c.value, c.name)
	}
	rows := documentedCounters(ops)
	for _, name := range unreadKnobs(rows, t.literals) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: OPERATIONS.md documents counter %s, which no code emits\n", name)
	}
	targets, cmds, subs, err := definedRefs("Makefile", "cmd", "examples")
	fatal(err)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md"} {
		for _, ref := range staleRefs(readDoc(doc), targets, cmds, subs) {
			failed = true
			fmt.Fprintf(os.Stderr, "doccheck: %s mentions `%s`, which no longer exists\n", doc, ref)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "bench/README.md"} {
		for _, name := range staleTests(readDoc(doc), t.tests) {
			failed = true
			fmt.Fprintf(os.Stderr, "doccheck: %s cites `%s`, which no _test.go file declares\n", doc, name)
		}
	}
	for _, msg := range deadDecls(t.files, uncalled) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: %s\n", msg)
	}
	design := readDoc("DESIGN.md")
	checkCites := func(where, text string) {
		for _, title := range designCites(text, design) {
			failed = true
			fmt.Fprintf(os.Stderr, "doccheck: %s cites DESIGN.md %q, which DESIGN.md has no heading or run-in label for\n", where, title)
		}
	}
	for _, f := range t.files {
		if !strings.HasSuffix(f.path, "_test.go") {
			var comments strings.Builder
			for _, cg := range f.f.Comments {
				comments.WriteString(cg.Text())
			}
			checkCites(f.path, comments.String())
		}
	}
	for _, doc := range []string{"README.md", "OPERATIONS.md", "EXPERIMENTS.md", "bench/README.md"} {
		checkCites(doc, readDoc(doc))
	}
	for _, msg := range overBudget("DESIGN.md", design, designMaxLines, designMaxBytes, designMaxPRs) {
		failed = true
		fmt.Fprintf(os.Stderr, "doccheck: %s\n", msg)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("doccheck: all packages documented, all %d registered knobs in the README, all %d README knob keys read by code, all %d README struct settings declared, all %d counters in OPERATIONS.md, all %d OPERATIONS.md counter rows emitted by code, every declaration under internal/ referred to by program code or one of %d listed exceptions\n",
		len(t.knobs), len(documented), len(settings), len(t.counters), len(rows), len(uncalled))
}

// fatal exits on a file doccheck cannot read or parse.
func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
}

func readDoc(path string) string {
	data, err := os.ReadFile(path)
	fatal(err)
	return string(data)
}

// DESIGN.md's pinned size: its line count, byte count and "PR n" mentions
// when last cut. A change may lower them, never raise them: history goes to
// CHANGES.md, and DESIGN.md says what the code does now. The byte pin keeps
// the line pin from being met by joining lines.
const (
	designMaxLines = 1090
	designMaxBytes = 76576
	designMaxPRs   = 0
)

// prMention matches one "PR n" mention.
var prMention = regexp.MustCompile(`PR [0-9]+`)

// overBudget returns why doc, the file name, runs past maxLines lines,
// maxBytes bytes or maxPRs "PR n" mentions; nothing when it does not.
func overBudget(name, doc string, maxLines, maxBytes, maxPRs int) []string {
	var msgs []string
	if n := strings.Count(doc, "\n"); n > maxLines {
		msgs = append(msgs, fmt.Sprintf("%s has %d lines, over its pinned %d: cut it rather than raise the pin", name, n, maxLines))
	}
	if n := len(doc); n > maxBytes {
		msgs = append(msgs, fmt.Sprintf("%s has %d bytes, over its pinned %d: cut it rather than raise the pin", name, n, maxBytes))
	}
	if n := len(prMention.FindAllString(doc, -1)); n > maxPRs {
		msgs = append(msgs, fmt.Sprintf("%s has %d \"PR n\" mentions, over its pinned %d: history belongs in CHANGES.md", name, n, maxPRs))
	}
	return msgs
}

// designCite matches a citation — DESIGN.md, a space, a title in double
// quotes — once runs of white space, line breaks included, are folded to
// one space.
var designCite = regexp.MustCompile(`DESIGN\.md "([^"]+)"`)

// designCites returns every title text cites (designCite) that design does
// not hold: as the text of a #-heading, or as the run-in label a line opens
// with, `**Title` or `*Title` followed by a punctuation mark (`**Title.**`,
// `*Title, …*`).
func designCites(text, design string) []string {
	lines := strings.Split(design, "\n")
	resolves := func(title string) bool {
		for _, line := range lines {
			if h := strings.TrimLeft(line, "#"); h != line && strings.TrimSpace(h) == title {
				return true
			}
			for _, open := range []string{"**", "*"} {
				if rest, ok := strings.CutPrefix(line, open+title); ok {
					if r, _ := utf8.DecodeRuneInString(rest); unicode.IsPunct(r) {
						return true
					}
				}
			}
		}
		return false
	}
	var missing []string
	for _, m := range designCite.FindAllStringSubmatch(strings.Join(strings.Fields(text), " "), -1) {
		if !resolves(m[1]) {
			missing = append(missing, m[1])
		}
	}
	return missing
}

// knob is one exported Conf* (knob) or Ctr* (counter) string constant found
// in the tree.
type knob struct {
	name  string // Go identifier, e.g. ConfWALFsync
	value string // knob or counter name, e.g. ingest.wal.fsync
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

// fieldRef matches a struct-field setting, e.g. Master.MonitorInterval.
var fieldRef = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*\.[A-Z][A-Za-z0-9]*$`)

// configSection returns the README's "Configuration reference" section.
func configSection(readme string) string {
	_, section, _ := strings.Cut(readme, "\n## Configuration reference")
	section, _, _ = strings.Cut(section, "\n## ")
	return section
}

// firstColumn returns the spans backticked in the first column of the
// markdown tables in doc that match re. A non-empty header keeps only the
// tables whose first header cell reads header, case aside.
func firstColumn(doc string, re *regexp.Regexp, header string) []string {
	var out []string
	inTable, keep := false, false
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			inTable = false
			continue // not a table row
		}
		if !inTable { // a table's first row is its header
			inTable = true
			keep = header == "" || strings.EqualFold(strings.TrimSpace(cells[1]), header)
		}
		if !keep {
			continue
		}
		for i, span := range strings.Split(cells[1], "`") {
			if i%2 == 1 && re.MatchString(span) {
				out = append(out, span)
			}
		}
	}
	return out
}

// documentedKnobs returns the lower-case dotted keys backticked in the first
// column of the tables under the README's "Configuration reference" heading
// (struct fields, flags and counters named there are not keys).
func documentedKnobs(readme string) []string {
	return firstColumn(configSection(readme), confKey, "")
}

// documentedFields returns the `Type.Field` settings backticked in the
// first column of the same tables.
func documentedFields(readme string) []string {
	return firstColumn(configSection(readme), fieldRef, "")
}

// documentedCounters returns the lower-case dotted names backticked in the
// first column of OPERATIONS.md's counter tables (first header cell
// "Counter").
func documentedCounters(ops string) []string {
	return firstColumn(ops, confKey, "counter")
}

// missingFields returns the Type.Field references that name no exported
// field of a struct type Type; fields maps each struct type name to its
// fields.
func missingFields(refs []string, fields map[string]map[string]bool) []string {
	var missing []string
	for _, ref := range refs {
		typ, field, _ := strings.Cut(ref, ".")
		if !fields[typ][field] {
			missing = append(missing, ref)
		}
	}
	return missing
}

// unreadKnobs returns the keys that occur inside none of the string
// literals: a knob (or counter) the docs name and no code can read (or
// emit).
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
	cmdRef     = regexp.MustCompile(`\b(cmd|examples)/([a-z][a-z0-9]*)`)
	testRef    = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(?:/\S*)?$`)
	// goRun is a `go run ./cmd/<name> …` or `go run ./examples/<name> …`
	// line; cmdLine a line that starts with a word and whitespace —
	// `<name> [subcommand] -flag …` when the word names a command. A shell
	// pipe, list, redirect or comment ends the command's arguments.
	goRun    = regexp.MustCompile(`\bgo run \./(cmd|examples)/([a-z][a-z0-9]*)(\s[^|;&#<>]*)?`)
	cmdLine  = regexp.MustCompile(`^\s*([a-z][a-z0-9]*)(\s[^|;&#<>]*)`)
	flagWord = regexp.MustCompile(`(?:^|\s)--?([a-zA-Z][a-zA-Z0-9-]*)`)
	// citedTools are the programs besides the repository's own commands
	// whose flagged command lines the docs may show.
	citedTools = map[string]bool{"go": true, "make": true, "bash": true, "curl": true, "kill": true}
)

// definedRefs returns the targets the Makefile defines and, per program
// directory under each of dirs, the subcommands its non-test sources
// dispatch on and the flags they define, keyed by refKey, with " <sub>"
// appended for a subcommand.
func definedRefs(makefile string, dirs ...string) (targets map[string]bool, cmds, subs map[string]map[string]bool, err error) {
	data, err := os.ReadFile(makefile)
	if err != nil {
		return nil, nil, nil, err
	}
	targets = make(map[string]bool)
	for _, m := range makeTarget.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	cmds, subs = make(map[string]map[string]bool), make(map[string]map[string]bool)
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				if err := programRefs(filepath.Join(dir, e.Name()), refKey(dir, e.Name()), cmds, subs); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	return targets, cmds, subs, nil
}

// refKey is how the docs name a program: a command by its bare name (it is
// on the PATH), an example by its directory, "examples/<name>".
func refKey(dir, name string) string {
	if dir == "cmd" {
		return name
	}
	return dir + "/" + name
}

// programRefs adds the flags and subcommands of the program in dir to cmds
// and subs under key.
func programRefs(dir, key string, cmds, subs map[string]map[string]bool) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return err
	}
	sets := map[string]map[string]bool{"": {}}
	words := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		flagNames(f, sets)
		subcommands(f, words)
	}
	for set, flags := range sets {
		if !words[set] && set != "" {
			return fmt.Errorf("%s: flag set %q is no subcommand it dispatches on", dir, set)
		}
		flags["h"], flags["help"] = true, true // the flag package's own
		cmds[strings.TrimSpace(key+" "+set)] = flags
	}
	if len(words) > 0 {
		subs[key] = words
	}
	return nil
}

// subcommands adds to subs every string literal f compares os.Args[1] with:
// the cases of a `switch os.Args[1]` and the operand of an `os.Args[1] ==`
// or `!=` test.
func subcommands(f *ast.File, subs map[string]bool) {
	add := func(e ast.Expr) {
		if word, ok := stringLit(e); ok {
			subs[word] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SwitchStmt:
			if n.Tag != nil && types.ExprString(n.Tag) == "os.Args[1]" {
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						add(e)
					}
				}
			}
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && types.ExprString(n.X) == "os.Args[1]" {
				add(n.Y)
			}
		}
		return true
	})
}

// flagNames adds to sets the name of every flag f defines: the
// string-literal name argument of a String, Int, BoolVar, Func … call on
// the flag package to sets[""], on a FlagSet made by
// flag.NewFlagSet("<sub>", …) in the same function to sets[sub].
func flagNames(f *ast.File, sets map[string]map[string]bool) {
	var named map[string]string // receiver → flag set, per function
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.File, *ast.FuncDecl:
			named = map[string]string{"flag": ""}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if ok && types.ExprString(call.Fun) == "flag.NewFlagSet" && len(call.Args) > 0 {
					if name, ok := stringLit(call.Args[0]); ok {
						named[types.ExprString(n.Lhs[0])] = name
						sets[name] = map[string]bool{}
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			set, ok := named[types.ExprString(sel.X)]
			if !ok {
				return true
			}
			arg := 0
			switch sel.Sel.Name {
			case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc":
			case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "Float64Var", "DurationVar", "Var", "TextVar":
				arg = 1
			default:
				return true
			}
			if len(n.Args) > arg {
				if name, ok := stringLit(n.Args[arg]); ok {
					sets[set][name] = true
				}
			}
		}
		return true
	})
}

// stringLit returns the value of a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// staleRefs returns every `make <target>`, `cmd/<name>` and
// `examples/<name>` that doc mentions inside backticks (inline code or a
// fenced block — prose is skipped, so "make sure" is not a target) but that
// targets / cmds do not hold, and every `-flag` of a command line there that
// its program does not define: a line `go run ./cmd/<name> … -flag` or `go
// run ./examples/<name> … -flag`, or a line that starts with a command's
// name and whitespace, `<name> [subcommand] -flag …` (so a job name such as
// `ddp-dc-sample` is no command line). On the line of a command with
// subcommands (subs), a first argument that is no flag must be one of them,
// and the line's flags must be that subcommand's. A flagged line that starts
// with a name that is neither a command, an example nor one of citedTools
// names a binary that is gone, and is reported by that name.
func staleRefs(doc string, targets map[string]bool, cmds, subs map[string]map[string]bool) []string {
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
			if _, ok := cmds[refKey(m[1], m[2])]; !ok {
				stale = append(stale, m[0])
			}
		}
		for _, line := range strings.Split(span, "\n") {
			var lines [][]string // name, args
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				lines = append(lines, []string{refKey(m[1], m[2]), m[3]})
			}
			for _, m := range cmdLine.FindAllStringSubmatch(line, -1) {
				lines = append(lines, m[1:])
			}
			for _, m := range lines {
				name, args := m[0], m[1]
				if _, ok := cmds[name]; !ok {
					// A flagged line of a name that is no command, no example
					// and no tool a doc may cite runs a binary that is gone
					// (a go run line's missing command is cmdRef's).
					_, example := cmds["examples/"+name]
					if !example && !citedTools[name] && !strings.Contains(name, "/") && flagWord.MatchString(args) {
						stale = append(stale, name)
					}
					continue
				}
				if words := subs[name]; words != nil {
					if first := strings.Fields(args); len(first) > 0 && !strings.HasPrefix(first[0], "-") {
						if !words[first[0]] {
							stale = append(stale, name+" "+first[0])
							continue
						}
						name += " " + first[0]
					}
				}
				for _, f := range flagWord.FindAllStringSubmatch(args, -1) {
					if !cmds[name][f[1]] {
						stale = append(stale, name+" -"+f[1])
					}
				}
			}
		}
	}
	return stale
}

// staleTests returns every test, fuzz target or benchmark name doc cites as
// a whole backticked span (`Name`, or `Name/subtest` for Name) that tests
// does not hold.
func staleTests(doc string, tests map[string]bool) []string {
	var stale []string
	for i, span := range strings.Split(doc, "`") {
		if m := testRef.FindStringSubmatch(span); i%2 == 1 && m != nil && !tests[m[1]] {
			stale = append(stale, m[1])
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

// structFields adds the exported field names of every struct type declared
// in f to fields, keyed by type name. Types of the same name in different
// packages share one entry.
func structFields(f *ast.File, fields map[string]map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		if fields[ts.Name.Name] == nil {
			fields[ts.Name.Name] = make(map[string]bool)
		}
		for _, fl := range st.Fields.List {
			for _, name := range fl.Names {
				if name.IsExported() {
					fields[ts.Name.Name][name.Name] = true
				}
			}
		}
		return true
	})
}

// tree is what scan reads out of the repository's Go files.
type tree struct {
	undocumented    []string                   // directories of packages without a package doc comment
	knobs, counters []knob                     // registered Conf* knobs and Ctr* counters, sorted by name
	literals        []string                   // dotted string literals of the non-test files
	fields          map[string]map[string]bool // exported fields per struct type
	tests           map[string]bool            // top-level functions of the test files
	files           []goFile                   // every Go file
}

// scan walks the tree under root and reads every Go file outside testdata
// and hidden directories.
func scan(root string) (tree, error) {
	t := tree{fields: make(map[string]map[string]bool), tests: make(map[string]bool)}
	// dir -> has at least one non-test file with a package doc
	hasDoc := make(map[string]bool)
	seen := make(map[string]bool)
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		t.files = append(t.files, goFile{path: filepath.ToSlash(rel), fset: fset, f: f})
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					t.tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		dir := filepath.Dir(path)
		seen[dir] = true
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasDoc[dir] = true
		}
		t.knobs = append(t.knobs, collectConsts(path, f, "Conf")...)
		t.counters = append(t.counters, collectConsts(path, f, "Ctr")...)
		structFields(f, t.fields)
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if val, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(val, ".") {
					t.literals = append(t.literals, val)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return tree{}, err
	}
	for dir := range seen {
		if !hasDoc[dir] {
			t.undocumented = append(t.undocumented, dir)
		}
	}
	sort.Strings(t.undocumented)
	sort.Slice(t.knobs, func(i, j int) bool { return t.knobs[i].value < t.knobs[j].value })
	sort.Slice(t.counters, func(i, j int) bool { return t.counters[i].value < t.counters[j].value })
	return t, nil
}
