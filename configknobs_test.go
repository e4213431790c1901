package edem

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"
)

// unsetKnobKeeps lists the exported configuration fields that no
// non-test file sets but that stay on purpose, each with its reason.
// Keys are "<package path below internal/>.<Type>.<Field>".
var unsetKnobKeeps = map[string]string{
	"serve.Config.WrapEval": "the seam through which tests wrap a detector's evaluation with a fault (breaker and degradation tests)",
}

// TestNoUnsetKnobs fails when an exported field of a configuration
// struct (a type under internal/ whose name ends in Config, plus
// core.Options) is set by no non-test file of the
// module or of bench/. A field only tests set is a knob production
// leaves at one value: make it a constant. Setting means a
// composite-literal key or a field address (&x.F, a flag binding) in
// any non-test file, or an assignment in a non-test file outside the
// declaring package, so a type's own default-filling does not count.
// Entries of unsetKnobKeeps must be unset and must exist.
func TestNoUnsetKnobs(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s := newExportScan(root)
	if err := s.loadAll(); err != nil {
		t.Fatal(err)
	}
	fields := s.knobFields()
	set := s.setFields()
	var unset []string
	for f, name := range fields {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	slices.Sort(unset)
	for _, name := range unset {
		if _, ok := unsetKnobKeeps[name]; !ok {
			t.Errorf("%s is set by no non-test file: replace it with a constant, or add it to unsetKnobKeeps with a reason", name)
		}
	}
	known := map[string]bool{}
	for _, name := range fields {
		known[name] = true
	}
	for name := range unsetKnobKeeps {
		switch {
		case !known[name]:
			t.Errorf("unsetKnobKeeps entry %s names no configuration field: remove the entry", name)
		case !slices.Contains(unset, name):
			t.Errorf("unsetKnobKeeps entry %s is set now: remove the entry", name)
		}
	}
}

// knobFields returns the exported fields of the configuration structs
// declared under internal/, keyed by their objects.
func (s *exportScan) knobFields() map[*types.Var]string {
	prefix := modulePath + "/internal/"
	fields := map[*types.Var]string{}
	for path, pkg := range s.pkgs {
		short, ok := strings.CutPrefix(path, prefix)
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if !strings.HasSuffix(name, "Config") && short+"."+name != "core.Options" {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = short + "." + name + "." + f.Name()
				}
			}
		}
	}
	return fields
}

// setFields returns the struct fields some non-test file sets, in the
// sense of TestNoUnsetKnobs.
func (s *exportScan) setFields() map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for path, files := range s.files {
		info := s.infos[path]
		field := func(e ast.Expr) *types.Var {
			var id *ast.Ident
			switch x := e.(type) {
			case *ast.Ident:
				id = x
			case *ast.SelectorExpr:
				id = x.Sel
			default:
				return nil
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		}
		// chain marks the fields of a selector chain: writing x.F.G
		// sets both F and G.
		chain := func(e ast.Expr, outside bool) {
			for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
				if f := field(sel); f != nil && (!outside || f.Pkg().Path() != path) {
					set[f] = true
				}
			}
		}
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					if f := field(x.Key); f != nil {
						set[f] = true
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						chain(x.X, false)
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						chain(lhs, true)
					}
				case *ast.IncDecStmt:
					chain(x.X, true)
				}
				return true
			})
		}
	}
	return set
}
