package poilabel_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"poilabel/internal/experiment"
)

// TestHouseCounts is the one ruler for the counts the house rules cite.
// It asserts nothing; run it with
//
//	go test -run TestHouseCounts -v .
//
// and paste its log. Lines are newline counts of .go files outside
// benchmark/ (the repository benchmark), fixtures under testdata
// included. Exported identifiers count, over the same non-test files, every
// exported top-level name, method, struct field and interface method.
func TestHouseCounts(t *testing.T) {
	var nonTest, test, lint, exported int
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(src, []byte("\n"))
		if strings.HasSuffix(path, "_test.go") {
			test += n
			return nil
		}
		nonTest += n
		if strings.HasPrefix(path, filepath.Join("internal", "lint")+string(filepath.Separator)) ||
			strings.HasPrefix(path, filepath.Join("cmd", "poivet")+string(filepath.Separator)) {
			lint += n
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		exported += countExported(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	root := parseDir(t, fset, ".")
	serviceOptions, assignerKinds := 0, 0
	for _, decl := range root {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() && d.Type.Results != nil &&
				len(d.Type.Results.List) == 1 && isIdent(d.Type.Results.List[0].Type, "ServiceOption") {
				serviceOptions++
			}
		case *ast.GenDecl:
			if d.Tok == token.CONST && len(d.Specs) > 0 && isIdent(d.Specs[0].(*ast.ValueSpec).Type, "AssignerKind") {
				for _, s := range d.Specs {
					assignerKinds += len(s.(*ast.ValueSpec).Names)
				}
			}
		}
	}

	binaries := subdirs(t, "cmd")
	flags := make([]string, 0, len(binaries))
	totalFlags := 0
	for _, bin := range binaries {
		n := 0
		for _, decl := range parseDir(t, fset, filepath.Join("cmd", bin)) {
			ast.Inspect(decl, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok && isFlagDefinition(call) {
					n++
				}
				return true
			})
		}
		totalFlags += n
		flags = append(flags, fmt.Sprintf("%s %d", bin, n))
	}

	t.Logf("non-test Go lines outside benchmark/: %d", nonTest)
	t.Logf("test Go lines outside benchmark/: %d", test)
	t.Logf("exported identifiers: %d", exported)
	t.Logf("ServiceOptions: %d", serviceOptions)
	t.Logf("flags: %d (%s)", totalFlags, strings.Join(flags, ", "))
	t.Logf("binaries: %d", len(binaries))
	t.Logf("examples: %d", len(subdirs(t, "examples")))
	t.Logf("internal packages: %d", len(subdirs(t, "internal")))
	t.Logf("poibench ids: %d", len(experiment.IDs()))
	t.Logf("AssignerKinds: %d", assignerKinds)
	t.Logf("lint + poivet non-test lines: %d", lint)
}

// countExported counts a file's exported top-level names, methods, struct
// fields and interface methods.
func countExported(f *ast.File) int {
	n := 0
	names := func(ids []*ast.Ident) {
		for _, id := range ids {
			if id.IsExported() {
				n++
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names([]*ast.Ident{d.Name})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					names(s.Names)
				case *ast.TypeSpec:
					names([]*ast.Ident{s.Name})
					switch typ := s.Type.(type) {
					case *ast.StructType:
						for _, field := range typ.Fields.List {
							names(field.Names)
						}
					case *ast.InterfaceType:
						for _, m := range typ.Methods.List {
							names(m.Names)
						}
					}
				}
			}
		}
	}
	return n
}

// parseDir returns the declarations of dir's non-test Go files.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []ast.Decl {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var decls []ast.Decl
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		decls = append(decls, f.Decls...)
	}
	return decls
}

// subdirs lists dir's immediate subdirectories, sorted.
func subdirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// isFlagDefinition reports whether call defines a command-line flag through
// the flag package (flag.Int, flag.StringVar, ...).
func isFlagDefinition(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isIdent(sel.X, "flag") {
		return false
	}
	switch strings.TrimSuffix(sel.Sel.Name, "Var") {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc", "Text", "":
		return true
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
