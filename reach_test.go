package stencilsched

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsReached walks the import graph from the
// product roots — this package, every cmd/* and the bench module — over
// non-test files, and fails naming each internal package that no root
// reaches. Tests and examples are not roots: code only they use is
// deleted, not kept.
func TestEveryInternalPackageIsReached(t *testing.T) {
	const module = "stencilsched"
	fset := token.NewFileSet()
	// imports returns the module-local directories the non-test Go files
	// of dir import.
	imports := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var deps []string
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if rest, ok := strings.CutPrefix(path, module+"/"); ok {
					deps = append(deps, rest)
				}
			}
		}
		return deps
	}

	queue := []string{".", "bench"}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cmds {
		if e.IsDir() {
			queue = append(queue, "cmd/"+e.Name())
		}
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		if reached[dir] {
			continue
		}
		reached[dir] = true
		queue = append(queue, imports(dir)...)
	}

	var internal []string
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		name := d.Name()
		if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			internal = append(internal, filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(internal)
	for i, dir := range internal {
		if (i == 0 || dir != internal[i-1]) && !reached[dir] {
			t.Errorf("%s/%s: no package outside tests and examples imports it", module, dir)
		}
	}
}
