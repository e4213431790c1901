package edem

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// durableOnly are the calls that decide whether a file survives a
// crash: opening a file for writing, staging a temp file, renaming and
// fsyncing.
var durableOnly = map[string]bool{
	"os.Create":       true,
	"os.WriteFile":    true,
	"os.OpenFile":     true,
	"os.CreateTemp":   true,
	"os.Rename":       true,
	"(*os.File).Sync": true,
}

// TestOneDurablePath fails on any non-test reference to a durableOnly
// call outside internal/durable, so every file edem writes goes through
// durable.WriteFile or durable.OpenLog and one torn-tail policy. It
// reuses TestNoDeadExports' type-checked load of the module. bench/ is
// exempt: it is the benchmark harness, which writes its own scratch
// files.
func TestOneDurablePath(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s := newExportScan(root)
	if err := s.loadAll(); err != nil {
		t.Fatal(err)
	}
	var sites []string
	for path, info := range s.infos {
		if path == modulePath+"/internal/durable" || path == modulePath+"/bench" || strings.HasPrefix(path, modulePath+"/bench/") {
			continue
		}
		for id, obj := range info.Uses {
			name := osFuncName(obj)
			if !durableOnly[name] {
				continue
			}
			pos := s.fset.Position(id.Pos())
			file, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				file = pos.Filename
			}
			sites = append(sites, fmt.Sprintf("%s at %s:%d", name, file, pos.Line))
		}
	}
	slices.Sort(sites)
	for _, site := range sites {
		t.Errorf("%s: write files through internal/durable (WriteFile or OpenLog)", site)
	}
}

// osFuncName names a function or method of package os the way
// durableOnly does; anything else is "".
func osFuncName(obj types.Object) string {
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "os" {
		return ""
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return "os." + f.Name()
	}
	typ, star := recv.Type(), ""
	if p, ok := typ.(*types.Pointer); ok {
		typ, star = p.Elem(), "*"
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return ""
	}
	return "(" + star + "os." + named.Obj().Name() + ")." + f.Name()
}
