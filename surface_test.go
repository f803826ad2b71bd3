package autocheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported declarations under internal/ that
// may lack a non-test caller in this module, each with its class and
// reason. A key is "pkg.Name" or "pkg.Type.Method", pkg being the path
// below internal/. The list is exact: an entry that gains a caller, or
// whose declaration is gone, fails TestEveryExportedNameHasACaller, so
// it can only shrink.
var surfaceAllowlist = map[string]string{
	// benchmark-only: the nested benchmark module calls these, and its
	// files are not part of this module. They go in the deletion change
	// that follows the benchmark's own (ROADMAP item 1).
	"checkpoint.NewContextBackend": "benchmark-only: benchmark/layers.go",
	"trace.ParseBinary":            "benchmark-only: benchmark/layers.go",
	"trace.ForEachBatch":           "benchmark-only: benchmark/layers.go",
	"trace.ParseBytesParallel":     "benchmark-only: benchmark/layers.go; Deprecated",
	"store.NewSharded":             "benchmark-only: benchmark/layers.go; Deprecated",
	"store.DefaultShardWorkers":    "benchmark-only: benchmark/layers.go; Deprecated",

	// cross-package test seam: a test in another package drives it.
	"wire.Transport.SetClock":         "test seam: internal/store/remote_test.go and internal/analysis/retryafter_test.go drive the retry clock",
	"store.Memory.Corrupt":            "test seam: internal/checkpoint/store_test.go and internal/server/blob_test.go damage a stored object",
	"trace.RecordBatch.AppendOperand": "test seam: the reference emitter, internal/interp/reference_test.go",
	"trace.RecordBatch.AppendRecord":  "test seam: the reference emitter, internal/interp/reference_test.go",
	"ddg.Graph.EdgeCount":             "test seam: internal/harness/ddg_test.go counts DDG edges",

	// cited by a DESIGN.md index row, which points at its test.
	"checkpoint.OptimalInterval": "DESIGN.md index row \"Young's interval\": internal/checkpoint/interval_test.go",
	"checkpoint.ExpectedWaste":   "DESIGN.md index row \"Young's interval\": internal/checkpoint/interval_test.go",
}

// standardMethods are method names that satisfy a standard-library
// interface; they are called through it, so no identifier names them.
var standardMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// declaredName is one exported declaration under internal/.
type declaredName struct {
	key      string    // pkg.Name or pkg.Type.Method
	pkg      string    // the path below internal/
	name     string    // the identifier a caller writes
	recv     string    // receiver type for a method, "" otherwise
	pos, end token.Pos // the declaration's extent; references inside it do not count
}

// TestEveryExportedNameHasACaller fails on an exported top-level name or
// method under internal/ that no identifier in a non-test file of this
// module refers to, outside the name's own declaration. Counting is by
// name, so a dead method that shares a name with a live one escapes: the
// test never fails falsely. autocheck.go is the API, and the method sets
// of the types it re-exports are exempt with it.
func TestEveryExportedNameHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reexported := reexportedTypes(files["autocheck.go"])
	var decls []declaredName
	for path, f := range files {
		pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		if !ok {
			continue
		}
		decls = append(decls, exportedDecls(pkg, f)...)
	}

	// refs[name] holds the position of every identifier with that name;
	// positions are unique across the file set.
	refs := map[string][]token.Pos{}
	for _, f := range files {
		recvs := receiverIdents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok && !recvs[id] {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
	}

	dead := map[string]bool{}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if d.recv != "" && (standardMethods[d.name] || reexported[d.pkg+"."+d.recv]) {
			continue
		}
		if !slices.ContainsFunc(refs[d.name], func(p token.Pos) bool { return p < d.pos || p >= d.end }) {
			dead[d.key] = true
		}
	}

	var unexplained, stale []string
	for key := range dead {
		if _, ok := surfaceAllowlist[key]; !ok {
			unexplained = append(unexplained, key)
		}
	}
	for key := range surfaceAllowlist {
		switch {
		case !declared[key]:
			stale = append(stale, key+" (no longer declared)")
		case !dead[key]:
			stale = append(stale, key+" (now has a caller)")
		}
	}
	sort.Strings(unexplained)
	sort.Strings(stale)
	if len(unexplained) > 0 {
		t.Errorf("%d exported names under internal/ have no non-test caller; delete each, move it into a _test.go file, or allowlist it with a class and reason:\n\t%s",
			len(unexplained), strings.Join(unexplained, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("stale surfaceAllowlist entries; remove them:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// exportedDecls lists f's exported top-level names and the exported
// methods of its exported types.
func exportedDecls(pkg string, f *ast.File) []declaredName {
	var out []declaredName
	add := func(id *ast.Ident, recv string, node ast.Node) {
		if !id.IsExported() {
			return
		}
		key := pkg + "." + id.Name
		if recv != "" {
			key = pkg + "." + recv + "." + id.Name
		}
		out = append(out, declaredName{key: key, pkg: pkg, name: id.Name, recv: recv, pos: node.Pos(), end: node.End()})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			recv := ""
			if decl.Recv != nil {
				recv = receiverType(decl.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
			}
			add(decl.Name, recv, decl)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "", spec)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, "", spec)
					}
				}
			}
		}
	}
	return out
}

// receiverType names a method receiver's base type: T for T, *T, T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// receiverIdents is the set of identifiers naming a method's receiver
// type: a method belongs to its type's declaration and is no use of it.
func receiverIdents(f *ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
			ast.Inspect(fn.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					out[id] = true
				}
				return true
			})
		}
	}
	return out
}

// reexportedTypes is the set of "pkg.Type" that autocheck.go aliases,
// pkg being the path below internal/.
func reexportedTypes(f *ast.File) map[string]bool {
	imports := map[string]string{} // local name -> path below internal/
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		rel, ok := strings.CutPrefix(path, "autocheck/internal/")
		if !ok {
			continue
		}
		name := rel[strings.LastIndex(rel, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = rel
	}
	out := map[string]bool{}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.TYPE {
			continue
		}
		for _, spec := range gen.Specs {
			sel, ok := spec.(*ast.TypeSpec).Type.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
				out[imports[pkg.Name]+"."+sel.Sel.Name] = true
			}
		}
	}
	return out
}
