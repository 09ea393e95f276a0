package joinmm

// The repository's gates on what `go test ./...` does not otherwise see,
// run as ordinary tests so CI and developers share one entry point (the CI
// docs job runs `go test -run 'TestDocs' .`):
//
//   - TestDocsMarkdownLinks: every relative link in every markdown file
//     must resolve to an existing file or directory.
//   - TestDocsGodocCoverage: every exported identifier in every library
//     package must carry a doc comment (the `go doc ./...` coverage the
//     missing-doc lint enforces).
//   - TestBenchBuilds: bench/ — its own module, frozen between benchmark
//     changes — still compiles against the engine.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target) links; images ![alt](target) share the
// (target) suffix and are matched too.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocsMarkdownLinks(t *testing.T) {
	var checked, broken int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		switch filepath.Base(path) {
		case "SNIPPETS.md", "PAPERS.md", "ISSUE.md":
			// Harness-provided reference corpora quoting other
			// repositories' files; their links never resolved here.
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			checked++
			if _, err := os.Stat(resolved); err != nil {
				broken++
				t.Errorf("%s: broken link %q (resolved %s)", path, m[1], resolved)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown links checked; walker is broken")
	}
	t.Logf("checked %d relative markdown links, %d broken", checked, broken)
}

// TestBenchBuilds vets the benchmark module. bench/ replays requests as
// direct calls into each layer's public API, so an engine change that renames
// or re-types anything it uses would otherwise fail only when the benchmark
// is next run.
func TestBenchBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bench module")
	}
	if out, err := exec.Command("go", "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}

func TestDocsGodocCoverage(t *testing.T) {
	fset := token.NewFileSet()
	var missing []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			if name == "main" {
				continue // commands and examples document via the command comment
			}
			for fname, file := range pkg.Files {
				missing = append(missing, undocumented(fset, fname, file)...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Errorf("missing doc comment: %s", m)
	}
	if len(missing) == 0 {
		t.Log("every exported identifier in every library package is documented")
	}
}

// undocumented returns a location string for every exported top-level
// identifier in file that lacks a doc comment: functions, methods on
// exported types, and type/var/const specs (a doc comment on the grouped
// declaration covers all of its specs).
func undocumented(fset *token.FileSet, fname string, file *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what string) {
		out = append(out, fset.Position(pos).String()+": "+what)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // methods on unexported types are not in go doc
			}
			report(d.Pos(), "func "+d.Name.Name)
		case *ast.GenDecl:
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), "value "+n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// exportedReceiver reports whether the method receiver's base type name is
// exported.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) != 1 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
