package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Program is the whole-program view the interprocedural analyzers run
// over: every loaded package, a CHA-style call graph across them, and
// the per-function nondeterminism sources the graph walks certify
// against. Only functions declared in the loaded packages get nodes;
// calls into dependencies are resolved at the call site against the
// denylists (wall-clock reads, global RNG) instead of being descended
// into — export data has no bodies, and the denylists are exactly the
// dependency behavior the determinism contract cares about.
type Program struct {
	// Dir is the absolute module root (empty for fixture programs, which
	// disables compiler-backed analyzers like hotalloc).
	Dir  string
	Pkgs []*Package

	// Funcs maps every function/method declared in the loaded packages to
	// its node. Keys are Origin() funcs, so generic instantiations share
	// their declaration's node.
	Funcs map[*types.Func]*FuncInfo
}

// FuncInfo is one call-graph node: a declared function or method, its
// outgoing edges into other declared functions, and the nondeterminism
// sources found directly in its body.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// DetRoot / DetPure / Hotpath mirror the function's marker
	// directives. A DetPure function is treated as a deterministic leaf:
	// detreach neither reports its sources nor follows its edges.
	DetRoot bool
	DetPure bool
	Hotpath bool

	// Calls are the outgoing edges in source order: static calls,
	// CHA-resolved interface dispatch, and method/function values (a
	// value reference is an edge from the function that creates the
	// value, which is where the des payload and sort-comparator idioms
	// put the eventual call).
	Calls []Edge

	// Sources are the direct nondeterminism sites in the body: denylisted
	// dependency calls, references to nondet func vars, unjoined go
	// statements and order-unstable map iteration feeding output.
	// Sites audited with //diversify:allow-nondet are filtered out here
	// (consuming the directive), so one audit covers detsource and
	// detreach alike.
	Sources []Source
}

// Edge is one call-graph edge. Kind is "call" for static calls,
// "iface" for CHA-resolved interface dispatch and "value" for
// method/function values.
type Edge struct {
	Callee *types.Func
	Pos    token.Pos
	Kind   string
}

// Source is one direct nondeterminism site.
type Source struct {
	Pos token.Pos
	Msg string
}

// funcDisplayName renders fn for diagnostics: "pkg.Func" or
// "pkg.(*Recv).Method" with the package's base name, matching how the
// repo's own docs refer to functions.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		tn := types.TypeString(t, func(p *types.Package) string { return "" })
		name = "(" + ptr + tn + ")." + name
	}
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		name = parts[len(parts)-1] + "." + name
	}
	return name
}

// BuildProgram builds the interprocedural program view for pkgs,
// collecting directives and markers but discarding their hygiene
// diagnostics (Check reports those). The CLI's -write-baseline path
// uses it to compute the escape baseline outside a full Check run.
func BuildProgram(pkgs []*Package) *Program {
	var scratch []Diagnostic
	dirs := map[*Package]*directiveIndex{}
	marks := map[*Package]*markerIndex{}
	for _, pkg := range pkgs {
		dirs[pkg] = collectDirectives(pkg.Fset, pkg.Files, &scratch)
		marks[pkg] = collectMarkers(pkg.Fset, pkg.Files, pkg.Info, &scratch)
	}
	return buildProgram(pkgs, dirs, marks)
}

// buildProgram constructs the call graph over the loaded packages.
// Marker hygiene has already been handled by collectMarkers; dirs
// provides the allow-nondet suppression lookup for source collection.
func buildProgram(pkgs []*Package, dirs map[*Package]*directiveIndex, marks map[*Package]*markerIndex) *Program {
	prog := &Program{Pkgs: pkgs, Funcs: map[*types.Func]*FuncInfo{}}
	for _, pkg := range pkgs {
		if prog.Dir == "" {
			prog.Dir = pkg.Dir
		}
	}

	// Pass 1: a node per declared function, marker flags attached, plus
	// the package-level nondet func vars (the injectable-clock pattern:
	// `var wallClock = time.Now`). A det-pure var is an audited leaf.
	nondetVars := map[types.Object]string{}
	for _, pkg := range pkgs {
		mi := marks[pkg]
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					fi := &FuncInfo{Fn: fn, Decl: d, Pkg: pkg}
					if mi != nil {
						_, fi.DetRoot = mi.markerFor(fn, "det-root")
						_, fi.DetPure = mi.markerFor(fn, "det-pure")
						_, fi.Hotpath = mi.markerFor(fn, "hotpath")
					}
					prog.Funcs[fn] = fi
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for i, name := range vs.Names {
							if i >= len(vs.Values) {
								break
							}
							obj := pkg.Info.Defs[name]
							if obj == nil {
								continue
							}
							if mi != nil {
								if _, pure := mi.pureVars[obj]; pure {
									continue
								}
							}
							if msg := nondetValueRef(pkg.Info, vs.Values[i]); msg != "" {
								nondetVars[obj] = msg
							}
						}
					}
				}
			}
		}
	}

	cha := newCHAIndex(pkgs)

	// Pass 2: edges and sources per body.
	for _, pkg := range pkgs {
		dix := dirs[pkg]
		for fn, fi := range prog.Funcs {
			if fi.Pkg != pkg || fi.Decl.Body == nil {
				continue
			}
			collectFunc(prog, cha, pkg, dix, fn, fi, nondetVars)
		}
	}

	// Deterministic edge order (the map iteration above already only
	// orders functions, whose bodies are walked in source order; sorting
	// by position makes the whole graph canonical regardless).
	for _, fi := range prog.Funcs {
		slices.SortStableFunc(fi.Calls, func(a, b Edge) int {
			if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
				return c
			}
			return cmp.Compare(funcDisplayName(a.Callee), funcDisplayName(b.Callee))
		})
		slices.SortStableFunc(fi.Sources, func(a, b Source) int {
			if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
				return c
			}
			return cmp.Compare(a.Msg, b.Msg)
		})
	}
	return prog
}

// nondetValueRef reports the nondeterminism message for an expression
// that references a denylisted function as a value ("" = clean).
func nondetValueRef(info *types.Info, e ast.Expr) string {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(e)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(e.Sel)
	default:
		return ""
	}
	switch {
	case obj == nil:
		return ""
	case isWallClockFunc(obj):
		return "wall-clock read time." + obj.Name()
	case isRandGlobal(obj):
		return "global RNG " + obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// collectFunc fills fi.Calls and fi.Sources from the declaration body.
// Function literals are flattened into their enclosing declaration:
// a closure's calls and sources belong to the function that creates it,
// which is sound for reachability (the closure cannot run unless its
// creator was reached).
func collectFunc(prog *Program, cha *chaIndex, pkg *Package, dix *directiveIndex, fn *types.Func, fi *FuncInfo, nondetVars map[types.Object]string) {
	info := pkg.Info
	addSource := func(pos token.Pos, msg string) {
		if dix != nil && dix.suppress("allow-nondet", pkg.Fset.Position(pos)) {
			return
		}
		fi.Sources = append(fi.Sources, Source{Pos: pos, Msg: msg})
	}
	addEdge := func(callee *types.Func, pos token.Pos, kind string) {
		callee = callee.Origin()
		if _, ok := prog.Funcs[callee]; ok {
			fi.Calls = append(fi.Calls, Edge{Callee: callee, Pos: pos, Kind: kind})
		}
	}

	// funNodes marks expressions consumed as a call's Fun (and their
	// selector idents), so the value-reference walk below does not
	// double-count direct calls.
	funNodes := map[ast.Node]bool{}
	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		funNodes[fun] = true
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			funNodes[sel.Sel] = true
		}
		return true
	})

	// hasJoin: one WaitGroup.Wait anywhere in the declaration joins the
	// goroutines it spawns — the evaluator fan-out shape. Anything less
	// leaves goroutine completion racing the deterministic timeline.
	hasJoin := false
	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if m := calleeFunc(info, call); m != nil && m.Name() == "Wait" {
				if recv := m.Signature().Recv(); recv != nil && namedFrom(recv.Type(), "sync", "WaitGroup") {
					hasJoin = true
				}
			}
		}
		return !hasJoin
	})

	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !hasJoin {
				addSource(n.Pos(), "go statement without a sync.WaitGroup join in the same function: goroutine completion order is scheduler-dependent")
			}
		case *ast.CallExpr:
			m := calleeFunc(info, n)
			if m == nil {
				// Func-value call: flag calls through package-level vars
				// initialized from denylisted sources (`wallClock()`);
				// other dynamic calls are covered by the value edges
				// created where the value was built.
				var obj types.Object
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					obj = info.ObjectOf(fun)
				case *ast.SelectorExpr:
					obj = info.ObjectOf(fun.Sel)
				}
				if msg, ok := nondetVars[obj]; ok {
					addSource(n.Pos(), msg+" (via func var "+obj.Name()+")")
				}
				return true
			}
			if recv := m.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, impl := range cha.implementations(m) {
					addEdge(impl, n.Pos(), "iface")
				}
				return true
			}
			if _, declared := prog.Funcs[m.Origin()]; declared {
				addEdge(m, n.Pos(), "call")
				return true
			}
			switch {
			case isWallClockFunc(m):
				addSource(n.Pos(), "wall-clock read time."+m.Name())
			case isRandGlobal(m):
				addSource(n.Pos(), "global RNG "+m.Pkg().Path()+"."+m.Name())
			}
		case *ast.Ident:
			if funNodes[n] {
				return true
			}
			if m, ok := info.Uses[n].(*types.Func); ok {
				if recv := m.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					for _, impl := range cha.implementations(m) {
						addEdge(impl, n.Pos(), "value")
					}
				} else if _, declared := prog.Funcs[m.Origin()]; declared {
					addEdge(m, n.Pos(), "value")
				} else if msg := nondetValueRef(info, n); msg != "" {
					addSource(n.Pos(), msg+" captured as a value")
				}
			} else if msg, ok := nondetVars[info.ObjectOf(n)]; ok {
				addSource(n.Pos(), msg+" (via func var "+n.Name+")")
			}
		case *ast.FuncDecl:
			if n != fi.Decl {
				return false
			}
		}
		return true
	})

	if fi.Decl.Body != nil {
		checkMapRangeOrder(info, fi.Decl.Body, func(pos token.Pos, format string, args ...any) {
			addSource(pos, fmt.Sprintf(format, args...))
		})
	}
}

// chaIndex supports class-hierarchy interface resolution: for an
// interface method, every method of a concrete named type declared in
// the loaded packages that implements the interface.
type chaIndex struct {
	named []*types.Named
	cache map[*types.Func][]*types.Func
}

func newCHAIndex(pkgs []*Package) *chaIndex {
	ix := &chaIndex{cache: map[*types.Func][]*types.Func{}}
	for _, pkg := range pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ix.named = append(ix.named, named)
		}
	}
	return ix
}

// implementations resolves the interface method m to every concrete
// method in the loaded packages whose receiver type implements the
// interface. Results are cached per abstract method and returned in a
// deterministic order (the scope walk above is name-sorted per
// package, and packages load in dependency order).
func (ix *chaIndex) implementations(m *types.Func) []*types.Func {
	m = m.Origin()
	if impls, ok := ix.cache[m]; ok {
		return impls
	}
	var impls []*types.Func
	recv := m.Signature().Recv()
	if recv == nil {
		ix.cache[m] = nil
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		ix.cache[m] = nil
		return nil
	}
	for _, named := range ix.named {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
		if sel == nil {
			// Unexported method from another package, or name mismatch.
			continue
		}
		if impl, ok := sel.Obj().(*types.Func); ok {
			impls = append(impls, impl.Origin())
		}
	}
	ix.cache[m] = impls
	return impls
}
