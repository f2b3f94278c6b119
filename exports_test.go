package orderopt_test

import (
	"cmp"
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported names under internal/ that no
// non-test code reaches and that stay anyway, each with its reason. A
// key is "pkg.Name", "pkg.Type.Method" or a whole "pkg".
var testOnlyAllowed = map[string]string{
	"conformance":                   "the golden corpus's runner and fixtures; the corpus is a test",
	"faultinject":                   "the fault-injection harness the lifecycle tests share",
	"exec.BruteForce":               "the executor's reference oracle, shared by the conformance and experiments tests",
	"exec.NewJoin":                  "builds operator trees by hand for the executor's and fault-injection tests",
	"exec.NewScan":                  "builds operator trees by hand for the executor's and fault-injection tests",
	"exec.Life.HeldBytes":           "test seam: the leak audits read the bytes a query still holds",
	"exec.Registry.Evict":           "test seam: the lifecycle tests evict a dataset under running queries",
	"freelist.Cycles":               "test seam: the live-heap test waits out two aging cycles before it measures",
	"order.NaiveContains":           "the reference Contains the order and framework tests compare against",
	"order.NaiveSequentialContains": "the reference sequential Contains the order and framework tests compare against",
	"querygen.SQL":                  "renders generated graphs as SQL for the parser's round-trip tests",
	"server.AppendRowsFrame":        "the reference rows-frame encoder the server's fuzz tests compare against",
	"tpcr.GenSpec.Scale":            "test seam: the tests scale a generated dataset down",
}

// TestNoTestOnlyExports type-checks every non-test package of the
// module and of benchmark/ and fails on each exported package-level name
// or method under internal/ that no non-test file uses. Nothing outside
// the module can import internal/, so such a name is dead code that only
// its tests keep alive. These count as used besides a plain reference:
// the methods of the types the root package re-exports (the paper's
// API), a method that implements a method of an interface the code
// declares or imports, and the allowlist above. A use of an
// instantiated generic method counts for its origin.
func TestNoTestOnlyExports(t *testing.T) {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err != nil {
		t.Fatalf("benchmark/ module not found next to the root package: %v", err)
	}
	s := &sweep{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: map[string]*types.Info{},
		ast:  map[string][]*ast.File{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	for _, m := range []struct{ dir, path string }{{".", "orderopt"}, {"benchmark", "orderopt/benchmark"}} {
		if err := s.findPackages(m.dir, m.path); err != nil {
			t.Fatal(err)
		}
	}
	for path := range s.dirs {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	out, allowedHit := s.unused()
	for _, u := range out {
		t.Errorf("%s: %s is exported but only tests use it; delete it, or add it to testOnlyAllowed with a reason", u.pos, u.name)
	}
	for k := range testOnlyAllowed {
		if !allowedHit[k] {
			t.Errorf("testOnlyAllowed[%q] names nothing that only tests use; remove the entry", k)
		}
	}
}

type sweep struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory, module packages only
	pkgs map[string]*types.Package
	info map[string]*types.Info
	ast  map[string][]*ast.File
}

// findPackages records every directory under root holding non-test Go
// files, skipping nested modules, testdata and hidden directories.
func (s *sweep) findPackages(root, modPath string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); dir != root && err == nil {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		s.dirs[strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/.")] = dir
		return nil
	})
}

// Import type-checks a module package from its non-test files, after
// the module packages it imports; the standard library comes from
// source.
func (s *sweep) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.info[path], s.ast[path] = p, info, files
	return p, nil
}

type unusedExport struct {
	pos  token.Position
	name string
}

// unused returns the exported names and methods under internal/ that
// no non-test code uses, in file order, leaving out those on the
// allowlist; allowedHit holds the allowlist keys that left one out.
func (s *sweep) unused() (out []unusedExport, allowedHit map[string]bool) {
	// Candidates, keyed by object, named "pkg.Name" or "pkg.Type.Method".
	names := map[types.Object]string{}
	for path, p := range s.pkgs {
		short, ok := strings.CutPrefix(path, "orderopt/internal/")
		if !ok {
			continue
		}
		for _, n := range p.Scope().Names() {
			obj := p.Scope().Lookup(n)
			if !obj.Exported() {
				continue
			}
			names[obj] = short + "." + n
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				if types.IsInterface(named) {
					continue
				}
				for i := range named.NumMethods() {
					if m := named.Method(i); m.Exported() {
						names[m] = short + "." + n + "." + m.Name()
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	// The facade: the method sets of the types the root package
	// re-exports.
	root := s.pkgs["orderopt"].Scope()
	for _, n := range root.Names() {
		if tn, ok := root.Lookup(n).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for i := range named.NumMethods() {
					used[named.Method(i)] = true
				}
			}
		}
	}
	// Plain references from non-test code, not counting a declaration's
	// references to itself or a method's receiver type.
	for path, files := range s.ast {
		info := s.info[path]
		self := map[*ast.Ident]types.Object{}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := info.Defs[fd.Name]
				ast.Inspect(fd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						self[id] = obj
					}
					return true
				})
				if fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							self[id] = info.Uses[id]
						}
						return true
					})
				}
			}
		}
		for id, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if self[id] != obj {
				used[obj] = true
			}
		}
	}
	// Interface methods: every interface the code declares or spells, the
	// named interfaces of the packages it imports, and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	scopes := map[*types.Package]bool{}
	for path, p := range s.pkgs {
		for _, tv := range s.info[path].Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		scopes[p] = true
		for _, imp := range p.Imports() {
			scopes[imp] = true
		}
	}
	for p := range scopes {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	allowedHit = map[string]bool{}
	for obj, name := range names {
		if used[obj] {
			continue
		}
		if m, ok := obj.(*types.Func); ok && implementsInterface(m, ifaces) {
			continue
		}
		if k, ok := allowlisted(name); ok {
			allowedHit[k] = true
			continue
		}
		out = append(out, unusedExport{s.fset.Position(obj.Pos()), name})
	}
	slices.SortFunc(out, func(a, b unusedExport) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), a.pos.Line-b.pos.Line)
	})
	return out, allowedHit
}

// allowlisted returns the testOnlyAllowed key that covers name: name
// itself, its type or its package.
func allowlisted(name string) (string, bool) {
	for k := name; ; {
		if _, ok := testOnlyAllowed[k]; ok {
			return k, true
		}
		i := strings.LastIndexByte(k, '.')
		if i < 0 {
			return "", false
		}
		k = k[:i]
	}
}

// implementsInterface reports whether method m's receiver type, or a
// pointer to it, implements an interface that has a method of m's name.
func implementsInterface(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == m.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
