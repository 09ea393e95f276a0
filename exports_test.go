package joinmm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that stay although nothing outside their own package's tests calls them,
// each with the reason. Keys are "pkg.Func" or "pkg.Type.Method", pkg being
// the directory under internal/.
var exportAllowlist = map[string]string{
	"matrix.SpGEMMCounts":      "the sparse kernel kept as the trial arm of a per-partition dense-vs-sparse choice (ROADMAP 3(c))",
	"matrix.NewCSR":            "builds the operands of that trial arm",
	"wal.WAL.Damaged":          "recovery code: reports a tail a failed append could not repair",
	"wal.WAL.Repair":           "recovery code: re-attempts the truncate-to-acked-tail repair",
	"core.Engine.CheckpointTo": "recovery code: the escape hatch that checkpoints a degraded data dir into a fresh one",
}

// implicitMethods are method names that standard-library interfaces call
// (fmt, errors, sort, container/heap, net/http, encoding/json), so no
// selector in this repository need name them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestNoUnusedExports keeps dead code out of internal/: go vet never flags
// an exported function nothing calls, so this test does.
func TestNoUnusedExports(t *testing.T) {
	if len(exportAllowlist) > 8 {
		t.Errorf("allowlist has %d entries; keep it to 8", len(exportAllowlist))
	}
	unused, declared, err := unusedExports(".", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unused {
		t.Errorf("%s:%d: %s is exported but nothing outside its package's tests calls it", d.file, d.line, d.key())
	}
	for k := range exportAllowlist {
		if !declared[k] {
			t.Errorf("allowlist entry %s names no exported function under internal/", k)
		}
	}
}

// TestNoUnusedExportsFixture runs the check on a small module: it reports an
// export that only its own package's tests call, one that only calls itself
// and a test-only method of a type the root package aliases, and none of the
// ways an export counts as used.
func TestNoUnusedExportsFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.24\n",
		"fix.go": `package fix

import "fix/internal/a"

// Aliased re-exports a type; that alone uses none of its methods.
type Aliased = a.Aliased
`,
		"internal/a/a.go": `package a

func Dead() {}

func OnlyOwnTests() {}

func Recursive(n int) { if n > 0 { Recursive(n - 1) } }

func OtherDirTest() {}

func FromCommand() {}

func FromBench() {}

func FromSamePackage() {}

func Allowed() {}

func caller() { FromSamePackage() }

type Aliased struct{}

func (Aliased) Method() {}

type S struct{}

func (S) String() string { return "" }

func (S) Unused() {}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { OnlyOwnTests(); S{}.Unused(); Aliased{}.Method() }
`,
		"internal/b/b_test.go": `package b

import (
	"testing"

	"fix/internal/a"
)

func TestB(t *testing.T) { a.OtherDirTest() }
`,
		"cmd/x/main.go": `package main

import alias "fix/internal/a"

func main() { alias.FromCommand() }
`,
		"bench/go.mod": "module fix/bench\n\ngo 1.24\n",
		"bench/main.go": `package main

import "fix/internal/a"

func main() { a.FromBench() }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, declared, err := unusedExports(root, map[string]string{"a.Allowed": "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unused {
		got = append(got, d.key())
	}
	want := []string{"a.Aliased.Method", "a.Dead", "a.OnlyOwnTests", "a.Recursive", "a.S.Unused"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reported %v, want %v", got, want)
	}
	if !declared["a.Allowed"] {
		t.Errorf("declared set misses fixture exports: %v", declared)
	}
}

// exportDecl is one exported function or method declared under internal/.
type exportDecl struct {
	file       string // slash path relative to the scanned root
	line       int
	dir        string // package directory, slash path relative to the root
	recv, name string // recv is "" for a function
}

func (d exportDecl) key() string {
	k := strings.TrimPrefix(d.dir, "internal/")
	if d.recv != "" {
		k += "." + d.recv
	}
	return k + "." + d.name
}

// unusedExports parses every Go file under root and returns, sorted by key,
// the exported functions and methods declared in non-test files under
// root/internal that nothing uses, plus the set of every such key declared.
//
// A use is a reference by name, outside the declaration's own body, from a
// non-test file anywhere under root (the module, and bench/ with its own
// go.mod) or from a _test.go file in another directory. Without type
// information a method counts as used when any selector names it, so a
// method is never reported while another type's method shares its name.
// Implicit interface methods and allowlisted keys count as used too.
func unusedExports(root string, allow map[string]string) ([]exportDecl, map[string]bool, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	var decls []exportDecl
	r := &refs{funcs: map[string]bool{}, methods: map[string]bool{}, testMethods: map[string]map[string]bool{}}
	all := func(fs.FileInfo) bool { return true }
	err = walkPackages(fset, root, all, parser.SkipObjectResolution, func(path string, pkgs map[string]*ast.Package) {
		rel, _ := filepath.Rel(root, path)
		dir := filepath.ToSlash(rel)
		for _, pkg := range pkgs {
			for fname, file := range pkg.Files {
				isTest := strings.HasSuffix(fname, "_test.go")
				if !isTest && strings.HasPrefix(dir, "internal/") {
					decls = append(decls, exportedFuncs(fset, root, dir, file)...)
				}
				r.add(mod, dir, file, isTest)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	declared := map[string]bool{}
	var out []exportDecl
	for _, d := range decls {
		declared[d.key()] = true
		used := allow[d.key()] != ""
		if d.recv == "" {
			used = used || r.funcs[d.dir+"."+d.name]
		} else {
			used = used || r.usedMethod(d.dir, d.name) || implicitMethods[d.name]
		}
		if !used {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out, declared, nil
}

// modulePath reads the module line of root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
}

// exportedFuncs lists the exported functions and methods file declares.
func exportedFuncs(fset *token.FileSet, root, dir string, file *ast.File) []exportDecl {
	var out []exportDecl
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		pos := fset.Position(fd.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		out = append(out, exportDecl{file: filepath.ToSlash(rel), line: pos.Line, dir: dir, recv: recvName(fd), name: fd.Name.Name})
	}
	return out
}

// recvName is the base type name of fd's receiver, or "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// internalImports maps each name file uses for a package of module mod to
// that package's directory relative to the module root.
func internalImports(mod string, file *ast.File) map[string]string {
	names := map[string]string{}
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if !strings.HasPrefix(p, mod+"/") {
			continue
		}
		dir := strings.TrimPrefix(p, mod+"/")
		name := dir[strings.LastIndexByte(dir, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = dir
	}
	return names
}

// refs is what the scanned files reference: package-level functions by
// directory and name, and methods by name alone, from non-test files and,
// per test directory, from _test.go files.
type refs struct {
	funcs       map[string]bool // dir + "." + name
	methods     map[string]bool
	testMethods map[string]map[string]bool // name → directories of test files naming it
}

// add records the references in file, whose package directory is dir. A
// test file does not use what its own directory declares, and no
// declaration uses itself by recursion.
func (r *refs) add(mod, dir string, file *ast.File, isTest bool) {
	imports := internalImports(mod, file)
	addFunc := func(d, name string) {
		if !isTest || d != dir {
			r.funcs[d+"."+name] = true
		}
	}
	addMethod := func(name string) {
		if !isTest {
			r.methods[name] = true
			return
		}
		if r.testMethods[name] == nil {
			r.testMethods[name] = map[string]bool{}
		}
		r.testMethods[name][dir] = true
	}
	for _, decl := range file.Decls {
		self, _ := decl.(*ast.FuncDecl)
		recv := "" // the receiver's name, for spotting recursive method calls
		if self != nil && self.Recv != nil && len(self.Recv.List) == 1 && len(self.Recv.List[0].Names) == 1 {
			recv = self.Recv.List[0].Names[0].Name
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				x, _ := n.X.(*ast.Ident)
				if x != nil && imports[x.Name] != "" {
					addFunc(imports[x.Name], n.Sel.Name)
					return false
				}
				if x == nil || recv == "" || x.Name != recv || n.Sel.Name != self.Name.Name {
					addMethod(n.Sel.Name)
				}
				ast.Inspect(n.X, visit) // n.Sel names a method or field, not a function
				return false
			case *ast.Ident:
				if self == nil || n != self.Name && (self.Recv != nil || n.Name != self.Name.Name) {
					addFunc(dir, n.Name)
				}
			}
			return true
		}
		ast.Inspect(decl, visit)
	}
}

// usedMethod reports whether a method called name, declared in dir, is
// named by a non-test file or by a test file of another directory.
func (r *refs) usedMethod(dir, name string) bool {
	if r.methods[name] {
		return true
	}
	for d := range r.testMethods[name] {
		if d != dir {
			return true
		}
	}
	return false
}
