package joinmm

// The repository's gates on what `go test ./...` does not otherwise see,
// run as ordinary tests so CI and developers share one entry point (the CI
// docs job runs `go test -run 'TestDocs|TestNoUnusedExports' -v .`):
//
//   - TestDocsMarkdownLinks: every relative link in every markdown file
//     must resolve to an existing file or directory.
//   - TestDocsGodocCoverage: every exported identifier in every library
//     package must carry a doc comment (the `go doc ./...` coverage the
//     missing-doc lint enforces).
//   - TestDocsIdentifiersExist: every Go identifier the living docs name in
//     backticks must still be declared where they say it is.
//   - TestNoUnusedExports (exports_test.go): every exported function or
//     method under internal/ is called from outside its own package's
//     tests, or sits on a short allowlist with a reason.
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

// walkPackages parses the Go files keep accepts in every directory under
// root, skipping dot-directories and testdata, and hands fn each directory's
// packages (a directory with external tests yields two).
func walkPackages(fset *token.FileSet, root string, keep func(fs.FileInfo) bool, mode parser.Mode,
	fn func(dir string, pkgs map[string]*ast.Package)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, keep, mode)
		if err != nil {
			return err
		}
		fn(path, pkgs)
		return nil
	})
}

func nonTest(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

func TestDocsGodocCoverage(t *testing.T) {
	fset := token.NewFileSet()
	var missing []string
	err := walkPackages(fset, ".", nonTest, parser.ParseComments, func(_ string, pkgs map[string]*ast.Package) {
		for name, pkg := range pkgs {
			if name == "main" {
				continue // commands and examples document via the command comment
			}
			for fname, file := range pkg.Files {
				missing = append(missing, undocumented(fset, fname, file)...)
			}
		}
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

// docIdent matches a backticked reference `pkg.Name` or `pkg.Type.Member`,
// optionally followed by a call or literal body. Benchmark metric names
// (`query.parse_ms`) carry underscores, which no identifier here does, and
// so never match.
var docIdent = regexp.MustCompile("`([A-Za-z][A-Za-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:[({][^`]*)?`")

// docLocalIdent matches a backticked bare lowerCamel identifier, which a
// package README uses for its own unexported names (`kernelDeltaMin`).
var docLocalIdent = regexp.MustCompile("`([a-z]+[A-Z][A-Za-z0-9]*)(?:\\([^`]*)?`")

// pkgDecls is what one package declares: top-level names, and per type its
// methods, struct fields and interface methods.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// anyMember reports whether some type of the package has the member — how
// prose names a method without its receiver (`query.Execute`).
func (p *pkgDecls) anyMember(name string) bool {
	for _, m := range p.members {
		if m[name] {
			return true
		}
	}
	return false
}

func parsePkgDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nonTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
	fields := func(typ string, fl *ast.FieldList) {
		for _, f := range fl.List {
			for _, n := range f.Names {
				p.member(typ, n.Name)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						p.top[d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if st, ok := recv.(*ast.StarExpr); ok {
						recv = st.X
					}
					if ix, ok := recv.(*ast.IndexExpr); ok {
						recv = ix.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						p.member(id.Name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							p.top[s.Name.Name] = true
							switch tt := s.Type.(type) {
							case *ast.StructType:
								fields(s.Name.Name, tt.Fields)
							case *ast.InterfaceType:
								fields(s.Name.Name, tt.Methods)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								p.top[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return p
}

// TestDocsIdentifiersExist keeps the living docs honest about the code: in
// README.md, docs/*.md and internal/*/README.md, every backticked `pkg.Name`
// or `pkg.Type.Member` whose pkg is a directory under internal/ must be
// declared there, and inside a package's own README so must `Type.Member`
// and bare lowerCamel names. ROADMAP.md, CHANGES.md, ISSUE.md, PAPER*.md,
// SNIPPETS.md and bench/ are history or frozen and are not read.
func TestDocsIdentifiersExist(t *testing.T) {
	files := []string{"README.md"}
	for _, pat := range []string{"docs/*.md", "internal/*/README.md"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	decls := map[string]*pkgDecls{}
	declsOf := func(pkg string) *pkgDecls {
		if d, ok := decls[pkg]; ok {
			return d
		}
		var d *pkgDecls
		if fi, err := os.Stat(filepath.Join("internal", pkg)); err == nil && fi.IsDir() {
			d = parsePkgDecls(t, filepath.Join("internal", pkg))
		}
		decls[pkg] = d
		return d
	}
	checked := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var own *pkgDecls // the package a package README belongs to
		if dir := filepath.Dir(path); filepath.Dir(dir) == "internal" {
			own = declsOf(filepath.Base(dir))
		}
		for _, m := range docIdent.FindAllStringSubmatch(string(data), -1) {
			d, name, member := declsOf(m[1]), m[2], m[3]
			if d == nil {
				if own == nil || !own.top[m[1]] || member != "" {
					continue // not a package under internal/, nor a type of this README's package
				}
				d, name, member = own, m[1], m[2] // `Type.Member` in the package's own README
			}
			checked++
			switch {
			case member != "" && !(d.top[name] && d.members[name][member]):
				t.Errorf("%s: %s names a member that is not declared", path, m[0])
			case member == "" && !d.top[name] && !d.anyMember(name):
				t.Errorf("%s: %s is not declared", path, m[0])
			}
		}
		if own == nil {
			continue
		}
		for _, m := range docLocalIdent.FindAllStringSubmatch(string(data), -1) {
			checked++
			if !own.top[m[1]] && !own.anyMember(m[1]) {
				t.Errorf("%s: %s is not declared in the package", path, m[0])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no identifiers checked; the matcher is broken")
	}
	t.Logf("checked %d backticked identifiers in %d files", checked, len(files))
}
