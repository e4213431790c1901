package edem

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadExportKeeps lists the exported names that no non-test file
// references but that stay on purpose, each with its reason. Keys are
// "<package path below internal/>.<Name>" or
// "<package path>.<Type>.<Method>"; a name of the root package (the
// facade) is "edem.<Name>".
var deadExportKeeps = map[string]string{
	// The paper's published values and Table I metrics.
	"core.PaperTable3":                             "the paper's Table III values, checked by TestPaperTablesComplete",
	"core.PaperTable4":                             "the paper's Table IV values, checked by TestPaperTablesComplete",
	"mining/eval.ConfusionMatrix.Accuracy":         "paper Table I metric, pinned by TestConfusionMatrixPaperExample",
	"mining/eval.ConfusionMatrix.ExpectedCost":     "paper Table I metric, pinned by TestConfusionMatrixPaperExample",
	"mining/eval.BinaryCounts.F1":                  "paper Table I metric, pinned by TestConfusionMatrixPaperExample",
	"mining/eval.BinaryCounts.GeometricMean":       "paper Table I metric, pinned by TestConfusionMatrixPaperExample",
	"mining/eval.BinaryCounts.DistanceFromPerfect": "paper Table I metric, pinned by TestConfusionMatrixPaperExample",

	// Test oracles and cross-package fixtures.
	"dataset.Dataset.MustAdd":           "test fixture builder used across packages",
	"dataset.Dataset.InvalidateMissing": "test fixture for missing-value handling across packages",
	"dataset.Dataset.Subset":            "test fixture and oracle of the columnar views",
	"predicate.Detector.AlarmIndices":   "oracle of TestServeChunkedAgreesWithDetectorVisit",
	"predicate.Detector.VisitCount":     "oracle of TestServeChunkedAgreesWithDetectorVisit",
	"propane.Run":                       "the reference engine the fork and campaign equivalence tests compare against",
	"dataset.Missing":                   "cross-package fixture builder for missing values until ROADMAP item 10 narrows the value domain",
	"dataset.NominalAttr":               "cross-package fixture builder for nominal attributes until ROADMAP item 10 narrows the value domain",
	"telemetry.WithRegistry":            "the seam that gives a test its own registry per context",
	"serve.DecodeJSONRequest":           "the JSON decode kernel bench/tracer is to time (ROADMAP item 3)",
	"core.CompareWithRangeCheckEA":      "source of EXPERIMENTS \"The headline contrast\" (paper §II-A), pinned by TestRangeCheckEAComparison",
}

// TestNoDeadExports type-checks every non-test file of the module and
// of bench/ and fails when an exported function, method, variable,
// constant or type declared under internal/ is referenced by none of
// them. The facade (the root package) is scanned the same way: its
// exports live only while a program, in practice an example, names
// them, or a kept facade function names them in its signature. Tests
// do not count: a name only tests use is dead code kept alive by its
// tests. Neither do blank declarations (var _ I = T{}),
// nor a type's own method receivers. Methods are exempt when their
// receiver satisfies an interface (of the repo or the standard
// library) that has a method of that name, since they may be called
// through it. Entries of deadExportKeeps must be dead and must exist.
func TestNoDeadExports(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s := newExportScan(root)
	if err := s.loadAll(); err != nil {
		t.Fatal(err)
	}
	dead, all := s.deadExports()
	for _, name := range dead {
		if _, ok := deadExportKeeps[name]; !ok {
			t.Errorf("%s is exported but no non-test file references it: delete it, move it into the test that uses it, or add it to deadExportKeeps with a reason", name)
		}
	}
	for name := range deadExportKeeps {
		switch {
		case !all[name]:
			t.Errorf("deadExportKeeps entry %s names nothing that exists: remove the entry", name)
		case !slices.Contains(dead, name):
			t.Errorf("deadExportKeeps entry %s is referenced now: remove the entry", name)
		}
	}
}

// exportScan type-checks the module's packages from source. Packages
// under the module path are checked by the scan itself, so their
// objects and uses are shared across importers; everything else is
// the standard library, checked by the source importer.
type exportScan struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
}

const modulePath = "edem"

func newExportScan(root string) *exportScan {
	// The scan needs no cgo: the standard library's pure-Go variants
	// type-check without a C compiler, and faster.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &exportScan{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
	}
}

// loadAll checks every directory of the tree that holds non-test Go
// files; bench/ is its own module but maps onto edem/bench.
func (s *exportScan) loadAll() error {
	return filepath.WalkDir(s.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != s.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(s.root, dir)
		if err != nil {
			return err
		}
		if _, err := s.Import(path.Join(modulePath, filepath.ToSlash(rel))); err != nil && err != errNoGoFiles {
			return err
		}
		return nil
	})
}

var errNoGoFiles = errors.New("no non-test Go files")

func (s *exportScan) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return s.std.Import(path)
	}
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, errNoGoFiles
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.infos[path], s.files[path] = pkg, info, files
	return pkg, nil
}

// deadExports returns the sorted names of the unreferenced exports
// under internal/ and of the facade, and the set of all their exported
// names.
func (s *exportScan) deadExports() (dead []string, all map[string]bool) {
	used := map[types.Object]bool{}
	for path, info := range s.infos {
		ignored := ignoredRanges(s.files[path])
		for id, obj := range info.Uses {
			if ignored.contains(id.Pos()) {
				continue
			}
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a method of an instantiated generic type
			}
			used[obj] = true
		}
	}
	ifaces := s.interfacesByMethod()
	all = map[string]bool{}
	prefix := modulePath + "/internal/"
	for path, pkg := range s.pkgs {
		short := strings.TrimPrefix(path, prefix)
		if short == path && path != modulePath {
			continue // not internal/ and not the facade
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			all[short+"."+name] = true
			if !used[obj] {
				dead = append(dead, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				key := short + "." + name + "." + m.Name()
				all[key] = true
				if !used[m] && !satisfiesNamedInterface(named, m.Name(), ifaces) {
					dead = append(dead, key)
				}
			}
		}
	}
	slices.Sort(dead)
	return dead, all
}

// interfacesByMethod indexes every named method-set interface of the
// checked packages and everything they import, plus error, by the
// names of its methods.
func (s *exportScan) interfacesByMethod() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				add(iface)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range s.pkgs {
		visit(pkg)
	}
	return byName
}

func satisfiesNamedInterface(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams() != nil {
		return true
	}
	for _, iface := range ifaces[method] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// posRanges holds the source ranges whose identifiers are not counted
// as references: blank declarations and method receivers.
type posRanges [][2]token.Pos

func (r posRanges) contains(p token.Pos) bool {
	for _, x := range r {
		if x[0] <= p && p < x[1] {
			return true
		}
	}
	return false
}

func ignoredRanges(files []*ast.File) posRanges {
	var r posRanges
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					r = append(r, [2]token.Pos{d.Recv.Pos(), d.Recv.End()})
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if allBlank(vs.Names) {
						r = append(r, [2]token.Pos{vs.Pos(), vs.End()})
					}
				}
			}
		}
	}
	return r
}

func allBlank(names []*ast.Ident) bool {
	for _, n := range names {
		if n.Name != "_" {
			return false
		}
	}
	return true
}
