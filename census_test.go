package seuss

// The reachability census: TestNothingUnreferenced loads every package
// in the tree (cmd/, examples/ and the bench/ module included) with
// go/parser and go/types and lists the declarations nothing but tests
// needs. The list must equal testdata/unreferenced.txt, whose every line
// gives the reason its entry stays. A new export nobody calls, an option
// only tests set, or a function only tests reach fails tier-1.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// censusTree is every package under one directory, type-checked. The
// module whose go.mod sits at the root is the one reported on; nested
// modules (bench/) only count as users of it.
type censusTree struct {
	fset    *token.FileSet
	modPath string
	pkgs    map[string]*censusPkg // by import path
	order   []*censusPkg          // in directory order
	std     types.ImporterFrom
	testPos map[*token.File]bool // files that are _test.go
}

type censusPkg struct {
	path     string
	reported bool // in the root module
	files    []*ast.File
	tests    []*ast.File // same package name
	xtests   []*ast.File // package <name>_test
	types    *types.Package
	checking bool
	// infos holds the non-test check first, then the in-package and
	// external test checks.
	infos []*types.Info
}

// loadCensus parses and type-checks every package under root: the
// non-test files, then each package's tests, so that a reference from
// a test is seen but can be told apart.
func loadCensus(root string) (*censusTree, error) {
	// Cgo files would need the C toolchain; the pure-Go variants of the
	// standard library type-check the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	t := &censusTree{
		fset:    fset,
		pkgs:    map[string]*censusPkg{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		testPos: map[*token.File]bool{},
	}
	modules := map[string]string{} // module root dir -> module path
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			modules[dir] = modulePath(string(mod))
			if dir == root {
				t.modPath = modules[dir]
			}
		}
		modDir := dir
		for modules[modDir] == "" && modDir != root {
			modDir = filepath.Dir(modDir)
		}
		rel, _ := filepath.Rel(modDir, dir)
		p := &censusPkg{path: modules[modDir], reported: modDir == root}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(e.Name(), "_test.go"):
				p.files = append(p.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtests = append(p.xtests, f)
			default:
				p.tests = append(p.tests, f)
			}
			if strings.HasSuffix(e.Name(), "_test.go") {
				t.testPos[fset.File(f.Pos())] = true
			}
		}
		if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
			t.pkgs[p.path] = p
			t.order = append(t.order, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range t.order {
		if _, err := t.check(p); err != nil {
			return nil, err
		}
	}
	for _, p := range t.order {
		withTests := p.types
		if len(p.tests) > 0 {
			all := append(append([]*ast.File(nil), p.files...), p.tests...)
			pkg, info, err := t.checkFiles(p.path, all, nil)
			if err != nil {
				return nil, err
			}
			p.infos = append(p.infos, info)
			withTests = pkg // what the external tests see
		}
		if len(p.xtests) > 0 {
			_, info, err := t.checkFiles(p.path+"_test", p.xtests, map[string]*types.Package{p.path: withTests})
			if err != nil {
				return nil, err
			}
			p.infos = append(p.infos, info)
		}
	}
	return t, nil
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// check type-checks p's non-test files, and first everything they
// import from the tree.
func (t *censusTree) check(p *censusPkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	pkg, info, err := t.checkFiles(p.path, p.files, nil)
	if err != nil {
		return nil, err
	}
	p.types, p.infos = pkg, []*types.Info{info}
	return pkg, nil
}

func (t *censusTree) checkFiles(path string, files []*ast.File, override map[string]*types.Package) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: censusImporter{t, override}}
	pkg, err := conf.Check(path, t.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	return pkg, info, nil
}

type censusImporter struct {
	t        *censusTree
	override map[string]*types.Package
}

func (im censusImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im censusImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := im.override[path]; pkg != nil {
		return pkg, nil
	}
	if p := im.t.pkgs[path]; p != nil {
		return im.t.check(p)
	}
	return im.t.std.ImportFrom(path, dir, mode)
}

func (t *censusTree) isTest(pos token.Pos) bool { return t.testPos[t.fset.File(pos)] }

// A finding is one census line: the kind of finding and the
// declaration's name, module-relative ("internal/core.Node.Invoke";
// the root package is the module path).
type finding struct{ kind, name string }

func (f finding) String() string { return f.kind + " " + f.name }

// Census kinds. A declaration gets at most one: unreached wins.
const (
	// kindUnreached: no path from a non-test entry point (a main, an
	// init, a method an in-use interface declares) reaches it.
	kindUnreached = "unreached"
	// kindExport: exported from internal/... or the root package, but
	// no non-test file outside its package names it.
	kindExport = "export"
	// kindUnset: a struct field no non-test file writes (unexported:
	// that no file writes; a test hook is one an in-package test sets).
	kindUnset = "unset"
)

// decl is a package-level declaration (or method) of a non-test file.
type decl struct {
	obj  types.Object
	pkg  *censusPkg
	name string
}

// census computes the findings for the root module's packages.
func (t *censusTree) census() []finding {
	decls := map[token.Pos]*decl{}       // every non-test declaration, all modules
	edges := map[token.Pos][]token.Pos{} // declaration -> declarations it names
	var roots []token.Pos
	sigTypes := map[token.Pos][]token.Pos{} // function or type -> types it names
	fields := map[token.Pos]*decl{}         // fields of the root module's named structs

	for _, p := range t.order {
		info := p.infos[0]
		rel := strings.TrimPrefix(strings.TrimPrefix(p.path, t.modPath), "/")
		if rel == "" {
			rel = t.modPath
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				var defs []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					defs = []*ast.Ident{d.Name}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, d.Name.Pos())
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							defs = append(defs, s.Name)
						case *ast.ValueSpec:
							defs = append(defs, s.Names...)
						}
					}
				}
				for _, id := range defs {
					obj := info.Defs[id]
					if obj == nil {
						continue
					}
					if id.Name == "_" {
						roots = append(roots, id.Pos())
					}
					name := rel + "." + obj.Name()
					if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
						name = rel + "." + recvName(fn) + "." + fn.Name()
					}
					decls[id.Pos()] = &decl{obj, p, name}
					if tn, ok := obj.(*types.TypeName); ok && p.reported {
						if st, ok := tn.Type().Underlying().(*types.Struct); ok {
							for i := 0; i < st.NumFields(); i++ {
								fv := st.Field(i)
								if fv.Embedded() || fv.Name() == "_" || st.Tag(i) != "" {
									continue
								}
								fields[fv.Pos()] = &decl{fv, p, name + "." + fv.Name()}
							}
						}
					}
				}
				// Everything a declaration names is an edge from each
				// name it declares (a var spec's names share one).
				var from []token.Pos
				for _, id := range defs {
					from = append(from, id.Pos())
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil {
							for _, f := range from {
								edges[f] = append(edges[f], declKey(obj))
							}
						}
					}
					return true
				})
				// The types a function's signature or a type's
				// definition names are used by whoever uses it.
				sig := func(name *ast.Ident, n ast.Node) {
					ast.Inspect(n, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if tn, ok := info.Uses[id].(*types.TypeName); ok {
								sigTypes[name.Pos()] = append(sigTypes[name.Pos()], tn.Pos())
							}
						}
						return true
					})
				}
				switch d := d.(type) {
				case *ast.FuncDecl:
					sig(d.Name, d.Type)
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						if ts, ok := sp.(*ast.TypeSpec); ok {
							sig(ts.Name, ts.Type)
						}
					}
				}
			}
		}
	}

	// The interface rule: a method counts as used when its receiver
	// implements an in-use interface that declares it.
	ifaces := t.inUseInterfaces()
	viaIface := map[token.Pos]bool{}
	for _, d := range decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams() != nil || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			for _, it := range ifaces[m.Name()] {
				if types.Implements(ptr, it) {
					viaIface[declKey(m)] = true
					break
				}
			}
		}
	}
	for pos := range viaIface {
		roots = append(roots, pos)
	}

	// Reachability from the non-test entry points.
	reached := map[token.Pos]bool{}
	for len(roots) > 0 {
		pos := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[pos] {
			continue
		}
		reached[pos] = true
		roots = append(roots, edges[pos]...)
	}

	// References and field writes from non-test code, all modules.
	outside := map[token.Pos]bool{} // named by a non-test file of another package
	written := map[token.Pos]bool{} // field written by a non-test file
	testWritten := map[token.Pos]bool{}
	for _, p := range t.order {
		files := append(append(append([]*ast.File(nil), p.files...), p.tests...), p.xtests...)
		for _, info := range p.infos {
			for id, obj := range info.Uses {
				if obj.Pkg() != nil && obj.Pkg().Path() != p.path && !t.isTest(id.Pos()) {
					outside[declKey(obj)] = true
				}
			}
			for sel, s := range info.Selections {
				if t.isTest(sel.Pos()) {
					continue
				}
				// Calling a method or reading a field of a type uses
				// the type, even where no file spells its name.
				recv := s.Recv()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != p.path {
					outside[n.Origin().Obj().Pos()] = true
				}
			}
			for _, f := range files {
				if _, checked := info.Defs[f.Name]; !checked {
					continue // another check's file
				}
				if t.isTest(f.Pos()) {
					markWrites(f, info, testWritten)
				} else {
					markWrites(f, info, written)
				}
			}
		}
	}

	for pos, ts := range sigTypes {
		if outside[pos] {
			for _, t := range ts {
				outside[t] = true
			}
		}
	}

	var out []finding
	for pos, d := range decls {
		if !d.pkg.reported {
			continue
		}
		switch {
		case !reached[pos]:
			out = append(out, finding{kindUnreached, d.name})
		case d.obj.Exported() && exportScope(d.pkg.path, t.modPath) && !outside[pos] && !viaIface[pos]:
			out = append(out, finding{kindExport, d.name})
		}
	}
	for pos, d := range fields {
		if written[pos] || !d.obj.Exported() && testWritten[pos] {
			continue
		}
		out = append(out, finding{kindUnset, d.name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// inUseInterfaces indexes by method name the interfaces non-test code
// spells anywhere but in their own declaration, those the standard
// library packages it imports export, and error.
func (t *censusTree) inUseInterfaces() map[string][]*types.Interface {
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(it *types.Interface) {
		if seen[it] || it.NumMethods() == 0 {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range t.order {
		own := map[ast.Expr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.TypeSpec); ok {
					own[s.Type] = true
				}
				return true
			})
		}
		for e, tv := range p.infos[0].Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && !own[e] {
				addIface(it)
			}
		}
		for _, imp := range p.types.Imports() {
			if t.pkgs[imp.Path()] != nil {
				continue
			}
			sc := imp.Scope()
			for _, n := range sc.Names() {
				if tn, ok := sc.Lookup(n).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
	}
	return ifaces
}

// declKey identifies a declaration across the checks of one package
// (each check makes its own objects, all at the same position), and a
// generic's instantiations with their origin.
func declKey(obj types.Object) token.Pos {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().Pos()
	case *types.Var:
		return o.Origin().Pos()
	}
	return obj.Pos()
}

// exportScope reports whether the census holds path's exports to an
// outside caller: the root package (the façade) and internal/....
func exportScope(path, mod string) bool {
	return path == mod || strings.HasPrefix(path, mod+"/internal/")
}

func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// markWrites records every struct field f writes: assignment and
// increment targets, address-taken operands, pointer-method receivers,
// and composite-literal keys (an unkeyed literal writes every field).
// Writing x.a.b also writes a when a is held by value.
func markWrites(f *ast.File, info *types.Info, w map[token.Pos]bool) {
	var mark func(e ast.Expr)
	mark = func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				s := info.Selections[x]
				if s == nil || s.Kind() != types.FieldVal {
					return
				}
				w[declKey(s.Obj())] = true
				if s.Indirect() {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if t := info.TypeOf(x.X); t == nil || !isArray(t) {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				mark(e)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				mark(n.Key)
				mark(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CallExpr:
			// x.f.M() with a pointer receiver takes &x.f.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					if _, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptrRecv {
						if _, isPtr := s.Recv().(*types.Pointer); !isPtr {
							mark(sel.X)
						}
					}
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if obj := info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
						w[declKey(obj)] = true
					}
				} else if i < st.NumFields() {
					w[declKey(st.Field(i))] = true
				}
			}
		}
		return true
	})
}

func isArray(t types.Type) bool {
	_, ok := t.Underlying().(*types.Array)
	return ok
}

// readAllowlist reads a census allowlist: "<kind> <name>: <reason>" per
// line, # comments and blank lines ignored. Every entry needs a reason.
func readAllowlist(path string) (map[finding]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[finding]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, reason, _ := strings.Cut(line, ":")
		kind, name, ok := strings.Cut(strings.TrimSpace(head), " ")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"<kind> <name>: <reason>\", got %q", path, n, line)
		}
		out[finding{kind, strings.TrimSpace(name)}] = strings.TrimSpace(reason)
	}
	return out, sc.Err()
}

// diffAllowlist returns the findings the allowlist lacks and the
// allowlist lines that no longer find anything.
func diffAllowlist(found []finding, allow map[finding]string) (missing, stale []finding) {
	have := map[finding]bool{}
	for _, f := range found {
		have[f] = true
		if _, ok := allow[f]; !ok {
			missing = append(missing, f)
		}
	}
	for f := range allow {
		if !have[f] {
			stale = append(stale, f)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].String() < stale[j].String() })
	return missing, stale
}

var (
	rootOnce sync.Once
	rootTree *censusTree
	rootErr  error
)

// rootCensus loads the repository once for the tests that read it.
func rootCensus() (*censusTree, error) {
	rootOnce.Do(func() { rootTree, rootErr = loadCensus(".") })
	return rootTree, rootErr
}

func TestNothingUnreferenced(t *testing.T) {
	tree, err := rootCensus()
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join("testdata", "unreferenced.txt"))
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := diffAllowlist(tree.census(), allow)
	for _, f := range missing {
		t.Errorf("%s: only tests need it, or nothing does; delete it, give it a non-test caller, or add a line with the reason to testdata/unreferenced.txt", f)
	}
	for _, f := range stale {
		t.Errorf("testdata/unreferenced.txt: %q finds nothing any more; delete the line", f.String())
	}
}

// TestCensusRules pins the census rules on a fixture module
// (testdata/census, which Go tooling ignores) and a second module that
// imports it (testdata/census/user, the bench/ case).
func TestCensusRules(t *testing.T) {
	tree, err := loadCensus(filepath.Join("testdata", "census"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range tree.census() {
		got = append(got, f.String())
	}
	want := []string{
		"export internal/lib.InPackageOnly",   // exported, no caller outside its package
		"unreached internal/lib.NoCaller",     // exported, no caller at all
		"unreached internal/lib.onlyTests",    // reached only from a test
		"unset internal/lib.Options.TestOnly", // written only in a _test.go file
		// Not found: square.Area and byLen's Len/Less/Swap (used only
		// through an in-use interface, shape and sort.Interface),
		// censusfix.Run and lib.UsedByUser (used by the user module).
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("census of testdata/census:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	rule := hostRule{
		guest:      []string{"internal/guest"},
		env:        "internal/guest.Env",
		envMethods: []string{"ChargeCPU"},
		host:       "internal/lib.Host",
		hooks:      "internal/guest.Hooks",
		hooksIn:    "internal/guest",
	}
	got = rule.check(tree)
	want = []string{
		"censusfix builds internal/guest.Hooks",                        // hooks built outside hooksIn
		"internal/guest calls internal/lib.Clock.Tick",                 // an interface from outside the guest
		"internal/guest.Env.Now: the CPU sink declares only ChargeCPU", // a second way to the host
		// Not found: lib.Host.WallTime (the host interface) and
		// Env.ChargeCPU (the sink), both called by the guest.
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("host rule on testdata/census:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// hostRule is the narrow-interface rule (DESIGN.md §5): the guest side
// of a UC reaches the host only through the hypercall table. Three
// things hold in non-test code:
//   - env, the time model's CPU sink, declares exactly envMethods
//   - the guest packages call no method of an interface the module
//     declares outside them, host excepted
//   - only hooksIn builds the interpreter's hooks
//
// Names are module-relative, as in the census. A rule whose env, host
// or hooks type the module does not declare fails, not passes.
type hostRule struct {
	guest      []string
	env        string
	envMethods []string
	host       string
	hooks      string
	hooksIn    string
}

// seussHostRule is the rule for this module.
var seussHostRule = hostRule{
	guest:      []string{"internal/lang", "internal/interp", "internal/libos"},
	env:        "internal/libos.Env",
	envMethods: []string{"ChargeCPU"},
	host:       "internal/hypercall.Host",
	hooks:      "internal/lang.Hooks",
	hooksIn:    "internal/interp",
}

// check returns one line per breach, sorted.
func (r hostRule) check(t *censusTree) []string {
	rel := func(path string) string {
		if path == t.modPath {
			return path
		}
		return strings.TrimPrefix(path, t.modPath+"/")
	}
	// named returns a module type's "pkg.Name", or "".
	named := func(typ types.Type) string {
		n, ok := typ.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || t.pkgs[n.Obj().Pkg().Path()] == nil {
			return ""
		}
		return rel(n.Obj().Pkg().Path()) + "." + n.Obj().Name()
	}
	guest := map[string]bool{}
	for _, g := range r.guest {
		guest[g] = true
	}
	found, declared := map[string]bool{}, map[string]bool{}
	for _, p := range t.order {
		if !p.reported {
			continue
		}
		here, info := rel(p.path), p.infos[0]
		for _, tn := range info.Defs {
			tn, ok := tn.(*types.TypeName)
			if ok {
				declared[named(tn.Type())] = true
			}
			if ok && named(tn.Type()) == r.env {
				it := tn.Type().Underlying().(*types.Interface)
				for i := 0; i < it.NumMethods(); i++ {
					if m := it.Method(i).Name(); !slices.Contains(r.envMethods, m) {
						found[fmt.Sprintf("%s.%s: the CPU sink declares only %s", r.env, m, strings.Join(r.envMethods, ", "))] = true
					}
				}
			}
		}
		for _, s := range info.Selections {
			if !guest[here] || s.Kind() == types.FieldVal {
				continue
			}
			recv := s.Obj().Type().(*types.Signature).Recv()
			if recv == nil || !types.IsInterface(recv.Type()) {
				continue
			}
			iface := named(recv.Type())
			if iface != "" && iface != r.host && !guest[rel(s.Obj().Pkg().Path())] {
				found[fmt.Sprintf("%s calls %s.%s", here, iface, s.Obj().Name())] = true
			}
		}
		for e, tv := range info.Types {
			if _, ok := e.(*ast.CompositeLit); ok && named(tv.Type) == r.hooks && here != r.hooksIn {
				found[fmt.Sprintf("%s builds %s", here, r.hooks)] = true
			}
		}
	}
	for _, name := range []string{r.env, r.host, r.hooks} {
		if !declared[name] {
			found[name+": the module declares no such type"] = true
		}
	}
	out := make([]string, 0, len(found))
	for f := range found {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// TestGuestReachesHostOnlyThroughHypercalls: the paper's security
// argument (§5) is a UC that touches the host through its hypercall
// table alone; seussHostRule checks that this tree holds it.
func TestGuestReachesHostOnlyThroughHypercalls(t *testing.T) {
	tree, err := rootCensus()
	if err != nil {
		t.Fatal(err)
	}
	for _, breach := range seussHostRule.check(tree) {
		t.Errorf("%s: a guest reaches the host only through hypercall.Host", breach)
	}
}

// docFiles are the documents whose backticked names must be real.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docSpan  = regexp.MustCompile("`([^`\n]+)`")
	docIdent = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	docPath  = regexp.MustCompile(`^(internal|cmd|examples|bench|scripts|results|testdata|\.github|\.claude)(/[\w.*-]+)*/?$|^[\w-]+\.(go|md|sh)(:\d+)?$`)
)

// TestDocsNameRealThings: every backticked Go name (pkg.Ident,
// pkg.method, Type.Member, or a bare CamelCase identifier) and
// repository path in the documents must resolve to a declaration in
// the tree or an existing file. A name whose first part is neither an
// in-tree package nor an in-tree type (fmt.Stringer, JSON.parse), a
// metric name (core.allocs_hot) and a file the program writes at run
// time (manifest.log) are not checked.
func TestDocsNameRealThings(t *testing.T) {
	tree, err := rootCensus()
	if err != nil {
		t.Fatal(err)
	}
	idx := tree.names()
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			idx.files = append(idx.files, filepath.ToSlash(path))
		}
		return nil
	})
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for n, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
				if why := idx.resolve(m[1]); why != "" {
					t.Errorf("%s:%d: `%s` %s", doc, n+1, m[1], why)
				}
			}
		}
	}
}

// docIndex is what the tree declares and holds, for the documents'
// names.
type docIndex struct {
	pkgs    map[string]map[string]bool // package name -> package-level names
	methods map[string]map[string]bool // package name -> its types' methods and fields
	members map[string]map[string]bool // type name -> methods and fields
	all     map[string]bool            // every declared name
	files   []string                   // every file, slash-separated
}

func (t *censusTree) names() docIndex {
	idx := docIndex{
		pkgs:    map[string]map[string]bool{},
		methods: map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		all:     map[string]bool{},
	}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	member := func(pkg, typ, name string) {
		add(idx.members, typ, name)
		add(idx.methods, pkg, name)
	}
	for _, p := range t.order {
		for _, info := range p.infos {
			for _, obj := range info.Defs {
				if obj == nil || obj.Pkg() == nil {
					continue
				}
				idx.all[obj.Name()] = true
				pkg := obj.Pkg().Name()
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					member(pkg, recvName(fn), fn.Name())
					continue
				}
				if obj.Parent() != obj.Pkg().Scope() {
					continue
				}
				add(idx.pkgs, pkg, obj.Name())
				tn, ok := obj.(*types.TypeName)
				if !ok {
					continue
				}
				name := tn.Name() // an alias lists its target's members
				switch u := tn.Type().Underlying().(type) {
				case *types.Struct:
					for i := 0; i < u.NumFields(); i++ {
						member(pkg, name, u.Field(i).Name())
					}
				case *types.Interface:
					for i := 0; i < u.NumMethods(); i++ {
						member(pkg, name, u.Method(i).Name())
					}
				}
				if named, ok := tn.Type().(*types.Named); ok && tn.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						member(pkg, name, named.Method(i).Name())
					}
				}
			}
		}
	}
	return idx
}

var (
	docFileExt = regexp.MustCompile(`\.(go|md|sh|json|mod|yml|tsv|txt|golden|log|snap|ws)$`)
	camelCase  = regexp.MustCompile(`^[A-Z][a-z0-9]+[A-Z]\w*$`)
	pkgIdent   = regexp.MustCompile(`^(.+)\.([A-Z]\w*)$`)
)

// resolve returns why span names nothing real, or "".
func (idx docIndex) resolve(span string) string {
	if docPath.MatchString(span) {
		return idx.resolvePath(span)
	}
	if !docIdent.MatchString(span) || strings.Contains(span, "_") || docFileExt.MatchString(span) {
		return ""
	}
	parts := strings.Split(strings.TrimSuffix(span, "()"), ".")
	switch {
	case len(parts) == 1:
		if camelCase.MatchString(parts[0]) && !idx.all[parts[0]] {
			return "is declared nowhere in the tree"
		}
	case idx.pkgs[parts[0]] != nil:
		if !idx.pkgs[parts[0]][parts[1]] && !idx.methods[parts[0]][parts[1]] {
			return "is not declared in package " + parts[0]
		}
		if len(parts) > 2 && !idx.members[parts[1]][parts[2]] {
			return "is no method or field of " + parts[1]
		}
	case idx.members[parts[0]] != nil:
		if !idx.members[parts[0]][parts[1]] {
			return "is no method or field of " + parts[0]
		}
	}
	return ""
}

// resolvePath accepts a path that exists (a glob that matches, a
// "dir/..." package pattern), a path that ends some file in the tree
// (testdata/timeline.golden), or a package path and identifier
// (internal/experiments.Registry).
func (idx docIndex) resolvePath(span string) string {
	path := strings.TrimSuffix(strings.TrimSuffix(span, "/..."), "/")
	if i := strings.LastIndex(path, ":"); i > 0 {
		path = path[:i]
	}
	if m, _ := filepath.Glob(path); len(m) > 0 {
		return ""
	}
	for _, f := range idx.files {
		if strings.HasSuffix("/"+f, "/"+path) {
			return ""
		}
	}
	if m := pkgIdent.FindStringSubmatch(path); m != nil {
		if _, err := os.Stat(m[1]); err == nil {
			if idx.pkgs[filepath.Base(m[1])][m[2]] {
				return ""
			}
			return "is not declared in " + m[1]
		}
	}
	return "names no file in the repository"
}
