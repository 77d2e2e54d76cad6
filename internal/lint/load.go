package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit analyzers run on.
type Package struct {
	// Path is the package's import path ("poilabel/internal/assign"; for
	// fixture packages, the path relative to the fixture root).
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records uses, defs, types, and selections for the files.
	Info *types.Info

	loader    *Loader
	declIndex map[types.Object]*ast.FuncDecl
}

// decls returns the package's function-declaration index, built on first
// use.
func (p *Package) decls() map[types.Object]*ast.FuncDecl {
	if p.declIndex == nil {
		p.declIndex = make(map[types.Object]*ast.FuncDecl)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
					if obj := p.Info.Defs[fd.Name]; obj != nil {
						p.declIndex[obj] = fd
					}
				}
			}
		}
	}
	return p.declIndex
}

// FuncDecl resolves a function object to its declaration, looking across
// every package this loader has loaded. It returns nil for functions outside
// the loaded set (standard library, interface methods).
func (l *Loader) FuncDecl(f *types.Func) (*ast.FuncDecl, *Package) {
	if f == nil || f.Pkg() == nil {
		return nil, nil
	}
	pkg, ok := l.pkgs[f.Pkg().Path()]
	if !ok {
		return nil, nil
	}
	if fd, ok := pkg.decls()[f]; ok {
		return fd, pkg
	}
	return nil, nil
}

// moduleDir maps an import-path prefix onto a directory tree. The empty
// prefix is the fixture fallback: any path whose directory exists under Dir
// resolves there, everything else is treated as standard library.
type moduleDir struct {
	Prefix string
	Dir    string
}

// Loader parses and type-checks packages of one module (plus, for fixtures,
// a secondary root) without any dependency beyond the standard library:
// module-local imports are type-checked from source through the same loader,
// standard-library imports go through go/importer's source compiler. One
// Loader shares a token.FileSet and a package cache across every Load call.
type Loader struct {
	fset     *token.FileSet
	mods     []moduleDir
	std      types.ImporterFrom
	pkgs     map[string]*Package
	checking map[string]bool
}

// Fset returns the file set shared by everything this loader loaded.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// NewLoader returns a loader resolving the given import-path prefixes.
// Mappings are tried in order; list the most specific first.
func NewLoader(mods ...moduleDir) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:     fset,
		mods:     mods,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}
}

// NewFixtureLoader returns a loader for an analysistest-style fixture tree:
// any import path whose directory exists under root resolves there, and
// everything else is treated as standard library. Package paths are the
// directories relative to root ("lockorder/a").
func NewFixtureLoader(root string) *Loader {
	return NewLoader(moduleDir{Prefix: "", Dir: root})
}

// NewModuleLoader returns a loader for the module rooted at root, reading
// the module path from its go.mod.
func NewModuleLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return NewLoader(moduleDir{Prefix: modPath, Dir: root}), nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Load resolves patterns against the loader's first module mapping and
// returns the matched packages, type-checked. Supported patterns: "./..."
// (every package under the module root), "...", a directory path relative
// to the module root ("./internal/assign"), or a full import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(l.mods) == 0 {
		return nil, fmt.Errorf("lint: loader has no module mapping")
	}
	root := l.mods[0]
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walked, err := walkPackageDirs(root.Dir)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		default:
			rel := strings.TrimPrefix(pat, "./")
			rel = strings.TrimPrefix(rel, root.Prefix)
			rel = strings.Trim(rel, "/")
			if strings.HasSuffix(rel, "/...") {
				base := filepath.Join(root.Dir, strings.TrimSuffix(rel, "/..."))
				walked, err := walkPackageDirs(base)
				if err != nil {
					return nil, err
				}
				for _, d := range walked {
					add(d)
				}
				continue
			}
			add(filepath.Join(root.Dir, rel))
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root.Dir, dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		path := root.Prefix
		if rel != "." {
			path = strings.TrimPrefix(root.Prefix+"/"+filepath.ToSlash(rel), "/")
		}
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkPackageDirs returns every directory under root holding at least one
// non-test .go file, skipping testdata, VCS, and underscore/dot directories.
func walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// dirFor resolves an import path through the module mappings; ok is false
// for standard-library paths.
func (l *Loader) dirFor(path string) (string, bool) {
	for _, m := range l.mods {
		if m.Prefix == "" {
			dir := filepath.Join(m.Dir, filepath.FromSlash(path))
			if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
				return dir, true
			}
			continue
		}
		if path == m.Prefix {
			return m.Dir, true
		}
		if rest, ok := strings.CutPrefix(path, m.Prefix+"/"); ok {
			return filepath.Join(m.Dir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load through
// the loader itself, everything else through the source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// loadPackage parses and type-checks one module package, caching the result.
func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve import path %q", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErr error
	cfg := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil && typeErr == nil {
		typeErr = err
	}
	if typeErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErr)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
