package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"slices"
	"sort"
	"strings"
)

// The reasons a declaration under internal/ may stand without a program
// caller.
const (
	harness     = "bench/ calls it; ROADMAP item 1(a)'s benchmark change deletes it"
	testSupport = "test support by design"
	chaosAPI    = testSupport + ": the fault injector of the crash drills (ROADMAP items 9 and 10)"
)

// uncalled lists the declarations under internal/ that no program code
// refers to and that stay anyway, each with its reason. The dead-declaration
// rule fails on an entry that is gone or that program code now refers to, so
// the list only shrinks.
var uncalled = map[string]string{
	"kernels.NNRows":           harness,
	"kernels.NNBatch":          harness,
	"kernels.NNRows32":         harness,
	"kernels.NNRowsQ8":         harness,
	"kernels.F32Bounds":        harness,
	"kernels.RhoAccumulate":    harness,
	"kernels.Shortlist.Finish": harness,
	"points.ToFloat32":         harness,
	"serve.PrecF32":            harness,
	"fleet.Router.FanoutBound": harness,
	"rpcmr.Master.History":     harness,
	"rpcmr.Master.Traces":      harness,
	"knnjoin.JobMerge":         harness,
	"chaos.Chaos.FlipBit":      chaosAPI,
	"chaos.Chaos.Register":     chaosAPI,
	"chaos.Node.Kill":          chaosAPI,
	"chaos.Node.Restart":       chaosAPI,
	"chaos.Node.Alive":         chaosAPI,
	"chaos.OnNth":              chaosAPI,
	"points.FromVectors":       testSupport + ": tests in many packages build datasets with it",
	"points.Rand.Shuffle":      testSupport,
	"points.Q8Params.Dequant":  testSupport + ": the q8 decode the points and model tests check codes against",
}

// goFile is one parsed Go file; path is relative to the module root, with
// forward slashes.
type goFile struct {
	path string
	fset *token.FileSet
	f    *ast.File
}

// deadDecls returns a message for every package-level func, type, var or
// const — and exported method of an exported, non-generic type — declared
// in a non-test file under internal/ that no identifier of a non-test file
// outside bench/ refers to, outside the declaration itself, and that allowed
// does not list; and one for every allowed key that names no such
// declaration or one that is referred to. References match by name, so a
// collision may hide a dead name but never flags a live one: an unexported
// name counts only from its own package, an exported one also as the
// selector of any x.Name. String and Error methods, which the standard
// library calls through an interface, always count as used.
func deadDecls(files []goFile, allowed map[string]string) []string {
	type decl struct {
		key, name, dir, pos string   // key is pkg.Name or pkg.Type.Method
		span                ast.Node // references inside it do not count
	}
	type use struct {
		dir  string
		sel  bool     // the Name of an x.Name selector
		span ast.Node // the top-level func or spec it sits in
	}
	var decls []decl
	uses := make(map[string][]use)
	for _, gf := range files {
		if strings.HasSuffix(gf.path, "_test.go") || strings.HasPrefix(gf.path, "bench/") {
			continue
		}
		dir, pkg := path.Dir(gf.path), gf.f.Name.Name+"."
		var span ast.Node
		declare := func(prefix string, id *ast.Ident) {
			if strings.HasPrefix(dir, "internal/") && id.Name != "_" && id.Name != "init" {
				pos := fmt.Sprintf("%s:%d", gf.path, gf.fset.Position(id.Pos()).Line)
				decls = append(decls, decl{prefix + id.Name, id.Name, dir, pos, span})
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name] = append(uses[n.Name], use{dir, false, span})
			case *ast.SelectorExpr:
				ast.Inspect(n.X, visit)
				uses[n.Sel.Name] = append(uses[n.Sel.Name], use{dir, true, span})
				return false
			}
			return true
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				span = d
				var recv ast.Expr
				if d.Recv != nil {
					recv = d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() && d.Name.IsExported() &&
					d.Name.Name != "String" && d.Name.Name != "Error" {
					declare(pkg+id.Name+".", d.Name)
				} else if recv == nil {
					declare(pkg, d.Name)
				}
				ast.Inspect(d.Type, visit) // not d.Recv: a receiver names the type its method belongs to
				if d.Body != nil {
					ast.Inspect(d.Body, visit)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					span = s
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(pkg, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(pkg, id)
						}
					}
					ast.Inspect(s, visit)
				}
			}
		}
	}
	var msgs, stale []string
	found := make(map[string]bool)
	for _, d := range decls {
		found[d.key] = true
		used := slices.ContainsFunc(uses[d.name], func(u use) bool {
			return u.span != d.span && (u.dir == d.dir || u.sel && ast.IsExported(d.name))
		})
		_, listed := allowed[d.key]
		switch {
		case !used && !listed:
			msgs = append(msgs, fmt.Sprintf("%s: %s is declared, but no non-test code outside bench/ refers to it", d.pos, d.key))
		case used && listed:
			msgs = append(msgs, fmt.Sprintf("uncalled lists %s, which program code now refers to", d.key))
		}
	}
	for key := range allowed {
		if !found[key] {
			stale = append(stale, fmt.Sprintf("uncalled lists %s, which is no longer declared", key))
		}
	}
	sort.Strings(stale)
	return append(msgs, stale...)
}
