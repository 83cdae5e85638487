package repro

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiKeep lists the exported internal names that no program calls but that
// stay on purpose, each with its reason.
var apiKeep = map[string]string{
	"SetVectorKernels":     "test seam: switches the spike kernels between vector and scalar lanes so tests run each",
	"FrameCoded":           "test oracle: one frame under an arbitrary neural code",
	"SpikeTrain":           "test oracle: explicit per-tick spike train",
	"Dot":                  "test oracle: scalar inner product",
	"Predict":              "test oracle: per-sample forward pass the batched kernels are pinned against",
	"Clone":                "test oracle: matrix deep copy for parity checks",
	"HilbertXY2D":          "test oracle: inverse that pins HilbertD2XY as a bijection",
	"Potential":            "test observer: a core's membrane potentials",
	"ClassCounts":          "test observer: class balance of a dataset or a merge readout",
	"Backends":             "test observer: a router's current membership",
	"Total":                "test observer: link-load conservation (Total == WireCost)",
	"ClearFaults":          "zero-fault contract (docs/DETERMINISM.md)",
	"DefaultEvalConfig":    "paper protocol defaults",
	"ContributionVariance": "paper Eq. 14",
	"NewLFSR16":            "LFSR ablation",
	"Uint16":               "LFSR ablation",
}

// TestInternalAPIHasCallers fails when an exported top-level func, method or
// type under internal/ is named by no non-test Go file other than at its own
// declaration, unless apiKeep lists it. Identifiers are matched by name, so a
// method counts as called when any call site or interface names it; a name
// declared n times (methods on several types) needs more than n tokens.
func TestInternalAPIHasCallers(t *testing.T) {
	decls := map[string][]string{} // name -> declaration positions
	uses := map[string]int{}       // name -> identifier tokens in non-test Go
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit]++
			}
		}
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				decls[id.Name] = append(decls[id.Name], fset.Position(id.Pos()).String())
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						add(ts.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d exported internal names", len(decls))
	}
	var unused []string
	for name, at := range decls {
		uncalled := uses[name] <= len(at)
		if _, keep := apiKeep[name]; keep != uncalled {
			if keep {
				t.Errorf("apiKeep lists %s, which a program now calls; drop it from the list", name)
				continue
			}
			unused = append(unused, name+" ("+strings.Join(at, ", ")+")")
		}
	}
	for name := range apiKeep {
		if decls[name] == nil {
			t.Errorf("apiKeep lists %s, which internal/ no longer exports; drop it from the list", name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside tests; delete it or add it to apiKeep with a reason", u)
	}
}
