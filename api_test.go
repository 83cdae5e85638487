package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiKeep lists the exported internal names that no program calls but that
// stay on purpose, each with its reason. Keys are package-qualified:
// "pkg.Func", "pkg.Type" or "pkg.Type.Method".
var apiKeep = map[string]string{
	"tensor.SetVectorKernels":             "test seam: switches the spike kernels between vector and scalar lanes so tests run each",
	"truenorth.Core.Reseed":               "test seam: puts a core's leak generator in a chosen state",
	"deploy.SampledNet.FrameCoded":        "test oracle: one frame under an arbitrary neural code",
	"deploy.SpikeTrain":                   "test oracle: explicit per-tick spike train",
	"tensor.Dot":                          "test oracle: scalar inner product",
	"tensor.Sum":                          "test oracle: plain slice sum",
	"nn.Network.Predict":                  "test oracle: per-sample forward pass the batched kernels are pinned against",
	"nn.MLP.Predict":                      "test oracle: per-sample forward pass the batched kernels are pinned against",
	"tensor.Matrix.Clone":                 "test oracle: matrix deep copy for parity checks",
	"tensor.Matrix.Equal":                 "test oracle: tolerance compare of two matrices",
	"truenorth.HilbertXY2D":               "test oracle: inverse that pins HilbertD2XY as a bijection",
	"nn.NonePenalty.Value":                "test oracle: penalty value whose finite differences pin Grad",
	"nn.L1Penalty.Value":                  "test oracle: penalty value whose finite differences pin Grad",
	"nn.L2Penalty.Value":                  "test oracle: penalty value whose finite differences pin Grad",
	"nn.BiasedPenalty.Value":              "test oracle: penalty value whose finite differences pin Grad",
	"tensor.Matrix.At":                    "test observer: one matrix element",
	"tensor.Matrix.Set":                   "test fixture: sets one matrix element",
	"nn.Network.SaveFile":                 "test fixture: writes a model file for the CLI and server tests",
	"dataset.Dataset.Validate":            "test observer: consistency check the dataset generators are pinned with",
	"deploy.SampledNet.Depth":             "test observer: a copy's core-layer count",
	"deploy.SampledNet.InputDim":          "test observer: a copy's input width",
	"deploy.SampledNet.NumCores":          "test observer: a copy's core count",
	"deploy.ChipNet.Depth":                "test observer: a chip's pipeline depth",
	"deploy.StochasticCode.Name":          "test observer: CoderByName round trip",
	"deploy.RateCode.Name":                "test observer: CoderByName round trip",
	"deploy.BurstCode.Name":               "test observer: CoderByName round trip",
	"truenorth.Core.Potential":            "test observer: a core's membrane potentials",
	"truenorth.NoCStats.MeanHopsPerSpike": "test observer: mean route length of a placement",
	"dataset.Dataset.ClassCounts":         "test observer: class balance of a dataset",
	"nn.MergeReadout.ClassCounts":         "test observer: class balance of a merge readout",
	"serve.Router.Backends":               "test observer: a router's current membership",
	"truenorth.LinkProfile.Total":         "test observer: link-load conservation (Total == WireCost)",
	"truenorth.Chip.ClearFaults":          "zero-fault contract (docs/DETERMINISM.md)",
	"deploy.DefaultEvalConfig":            "paper protocol defaults",
	"core.ContributionVariance":           "paper Eq. 14",
	"rng.NewLFSR16":                       "LFSR ablation",
	"rng.LFSR16.Uint16":                   "LFSR ablation",
}

// TestInternalAPIHasCallers fails when an exported top-level func, method or
// type under internal/ has no use in a non-test Go file outside its own
// declaration, unless apiKeep lists it. Every non-test package of the repo
// and of the nested perfbench module is type-checked (go/types, the
// standard library from source), so a use is a resolved object, not a name:
// a method named like a standard-library method (Load, Swap) counts only
// when a call reaches it. A method also counts as called when its type
// implements an interface that declares it and either a program calls that
// interface method or the interface comes from the standard library, whose
// callers (fmt, sort, net/http, ...) are not scanned.
func TestInternalAPIHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := path.Join("repro", filepath.ToSlash(filepath.Clean(dir)))
		dirs[imp] = append(dirs[imp], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The standard library is type-checked from source without cgo, so no
	// C toolchain is needed.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkgs := map[string]*types.Package{}
	var load func(imp string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if imp == "repro" || strings.HasPrefix(imp, "repro/") {
			return load(imp)
		}
		return std.ImportFrom(imp, ".", 0)
	})}
	load = func(imp string) (*types.Package, error) {
		if p := pkgs[imp]; p != nil {
			return p, nil
		}
		p, err := conf.Check(imp, fset, dirs[imp], info)
		pkgs[imp] = p
		return p, err
	}
	for imp := range dirs {
		if _, err := load(imp); err != nil {
			t.Fatalf("type-check %s: %v", imp, err)
		}
	}

	// used marks each object named outside its own declaration.
	declSpan := map[types.Object][2]token.Pos{}
	var decls []types.Object
	for imp, files := range dirs {
		if !strings.HasPrefix(imp, "repro/internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Name.IsExported() {
						obj := info.Defs[decl.Name]
						declSpan[obj] = [2]token.Pos{decl.Pos(), decl.End()}
						decls = append(decls, obj)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							obj := info.Defs[ts.Name]
							declSpan[obj] = [2]token.Pos{ts.Pos(), ts.End()}
							decls = append(decls, obj)
						}
					}
				}
			}
		}
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d exported internal names", len(decls))
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if span, ok := declSpan[obj]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
			continue
		}
		used[obj] = true
	}

	// ifaces indexes, by method name, the interfaces a method may be called
	// through: every interface type the scanned code names or builds, and
	// every exported interface of the standard-library packages it imports.
	type iface struct {
		it  *types.Interface
		std bool
	}
	ifaces := map[string][]iface{}
	addIface := func(typ types.Type, std bool) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], iface{it, std})
		}
	}
	for _, tv := range info.Types {
		addIface(tv.Type, false)
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			addIface(tn.Type(), false)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !strings.HasPrefix(p.Path(), "repro") {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type(), true)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	addIface(types.Universe.Lookup("error").Type(), true)

	viaInterface := func(fn *types.Func) bool {
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		// *T's method set holds the value and the pointer methods of T.
		typ := recv.Type()
		if _, ok := typ.(*types.Pointer); !ok {
			typ = types.NewPointer(typ)
		}
		for _, c := range ifaces[fn.Name()] {
			if !types.Implements(typ, c.it) {
				continue
			}
			if c.std {
				return true
			}
			for i := 0; i < c.it.NumMethods(); i++ {
				if m := c.it.Method(i); m.Name() == fn.Name() && used[m] {
					return true
				}
			}
		}
		return false
	}

	names := map[string]bool{}
	var unused []string
	for _, obj := range decls {
		name := qualifiedName(obj)
		names[name] = true
		uncalled := !used[obj]
		if fn, ok := obj.(*types.Func); ok && uncalled {
			uncalled = !viaInterface(fn)
		}
		if _, keep := apiKeep[name]; keep != uncalled {
			if keep {
				t.Errorf("apiKeep lists %s, which a program now calls; drop it from the list", name)
				continue
			}
			unused = append(unused, name+" ("+fset.Position(obj.Pos()).String()+")")
		}
	}
	for name := range apiKeep {
		if !names[name] {
			t.Errorf("apiKeep lists %s, which internal/ no longer exports; drop it from the list", name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside tests; delete it or add it to apiKeep with a reason", u)
	}
}

// qualifiedName returns obj's apiKeep key: pkg.Name, or pkg.Type.Method for
// a method.
func qualifiedName(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name = obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return name
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
