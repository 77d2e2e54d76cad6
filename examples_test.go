package poilabel

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesImportOnlyPublicAPI holds examples/ to what an outside user can
// write: Go refuses imports of poilabel/internal/... from another module, so
// an example that needs one demonstrates nothing a user could run.
func TestExamplesImportOnlyPublicAPI(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(p, "poilabel/internal/") {
				t.Errorf("%s imports %s; examples may import only poilabel", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files under examples/")
	}
}
