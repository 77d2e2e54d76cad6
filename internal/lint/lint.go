// Package lint is the repository's static-analysis substrate: a small,
// dependency-free analyzer framework modelled on golang.org/x/tools'
// go/analysis (the container this repo builds in has no module proxy, so the
// real package cannot be fetched; the API mirrors it closely enough that a
// future PR can swap the implementation for x/tools without touching the
// analyzers), plus the five project-specific analyzers that mechanically
// enforce the concurrency invariants of docs/ARCHITECTURE.md's "Locks and
// invariants" table:
//
//	lockorder   blocking calls / nested locks / unbalanced Lock-Unlock
//	            inside mutex critical sections, against the declared
//	            s.mu -> p.mu hierarchy
//	publish     writes to a value after it was stored into an
//	            atomic.Pointer (published generations are frozen)
//	atomicfield mixed atomic/non-atomic access to one field, and copies
//	            of lock/atomic-bearing structs vet's copylocks misses
//	ctxflow     dropped or shadowed context.Context parameters, and
//	            context.Background()/TODO() in library code
//	metricname  metric registrations off the poilabel_*/poiserve_*
//	            conventions, and sentinel errors compared with ==
//
// cmd/poivet runs all five over the tree; internal/lint/linttest runs each
// against its testdata fixtures.
//
// # Suppressing a diagnostic
//
// One directive, requiring a reason so waivers stay visible in review:
//
//	//lint:ignore <analyzer> <reason>
//
// on (or immediately above) the offending line suppresses one diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name (used in diagnostics and
// ignore directives), documentation, and the function that runs it on one
// package.
type Analyzer struct {
	// Name identifies the analyzer in output and //lint:ignore directives.
	Name string
	// Doc is the analyzer's one-paragraph documentation.
	Doc string
	// Run analyzes a package and reports diagnostics through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Report delivers one diagnostic. Diagnostics suppressed by an ignore
	// directive are dropped here, so Run implementations need no directive
	// handling of their own.
	Report func(Diagnostic)
}

// Fset returns the package's file set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Types returns the package's type information.
func (p *Pass) Types() *types.Package { return p.Pkg.Types }

// Info returns the package's use/def/type records.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The analyzer name is
// attached by the runner.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Position resolves the diagnostic's file position against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// directiveSet indexes a package's ignore directives by (file, line).
type directiveSet struct {
	ignores map[string]map[int][]string // file -> line -> analyzer names
}

// collectDirectives parses every //lint: comment in the package. An ignore
// directive suppresses diagnostics on its own line and, when it is the whole
// comment line, on the next line.
func collectDirectives(pkg *Package) *directiveSet {
	ds := &directiveSet{ignores: make(map[string]map[int][]string)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:"))
				if len(fields) < 2 {
					continue
				}
				verb, name := fields[0], fields[1]
				pos := pkg.Fset.Position(c.Pos())
				switch verb {
				case "ignore":
					m := ds.ignores[pos.Filename]
					if m == nil {
						m = make(map[int][]string)
						ds.ignores[pos.Filename] = m
					}
					// The directive covers its own line and the next one, so
					// both trailing and preceding-line styles work.
					m[pos.Line] = append(m[pos.Line], name)
					m[pos.Line+1] = append(m[pos.Line+1], name)
				}
			}
		}
	}
	return ds
}

// ignored reports whether a diagnostic from analyzer at pos is suppressed.
func (ds *directiveSet) ignored(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, name := range ds.ignores[p.Filename][p.Line] {
		if name == analyzer || name == "*" {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving diagnostics sorted by position. Packages whose directives
// suppress a diagnostic drop it before it is returned.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ds := collectDirectives(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Report: func(d Diagnostic) {
					if ds.ignored(pkg.Fset, a.Name, d.Pos) {
						return
					}
					d.Analyzer = a.Name
					out = append(out, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Pos, out[j].Pos
		if pi != pj {
			return pi < pj
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// All returns the five project analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		LockOrderAnalyzer,
		PublishAnalyzer,
		AtomicFieldAnalyzer,
		CtxFlowAnalyzer,
		MetricNameAnalyzer,
	}
}
