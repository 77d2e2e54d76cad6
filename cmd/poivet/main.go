// Command poivet runs the project's custom static analyzers (internal/lint)
// over the module: the mechanical enforcement of docs/ARCHITECTURE.md's
// "Locks and invariants" table.
//
// Usage:
//
//	poivet [-list] [packages]
//
// Packages default to ./... resolved against the enclosing module root.
// Diagnostics print as file:line:col: analyzer: message; the exit status is
// 1 when any diagnostic survives the //lint:ignore directives, 2 on a
// loading or internal error, 0 on a clean tree.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"poilabel/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: poivet [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(run(flag.Args()))
}

func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "poivet:", err)
		return 2
	}
	loader, err := lint.NewModuleLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "poivet:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "poivet:", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "poivet:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Position(loader.Fset())
		name := pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
				name = rel
			}
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "poivet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
