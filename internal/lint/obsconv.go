package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ObsConvAnalyzer enforces the observability conventions: in
// internal/obs, every exported pointer-receiver method must be
// nil-receiver safe (guard or no field access); everywhere else, metric
// names registered on an obs.Registry must be commchar_-prefixed
// snake_case, counters must end in _total, names must not be built
// dynamically (unbounded series cardinality), and nil guards around
// calls on nil-safe obs types are redundant and removable.
var ObsConvAnalyzer = &Analyzer{
	Name: "obsconv",
	Doc: "checks nil-receiver safety of obs types and commchar_* metric naming " +
		"(snake_case, _total counters, no dynamic names)",
	Run: runObsConv,
}

func runObsConv(pass *Pass) error {
	if inScope(pass.Pkg.Path(), "internal/obs") {
		checkNilSafety(pass)
	}
	if !isInternal(pass.Pkg.Path()) && pass.Pkg.Name() != "main" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkMetricName(pass, n)
			case *ast.IfStmt:
				checkRedundantNilGuard(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkNilSafety verifies the declaring-side convention: every
// exported pointer-receiver method of an exported obs type guards its
// receiver before it touches a field.
func checkNilSafety(pass *Pass) {
	for _, fd := range funcsIn(pass.Files) {
		tn, recvObj := pointerReceiver(pass.TypesInfo, fd)
		if tn == nil || !tn.Exported() || !fd.Name.IsExported() || recvObj == nil {
			continue // an unnamed receiver cannot be dereferenced
		}
		if !hasNilGuard(pass.TypesInfo, fd.Body, recvObj) && derefsReceiver(pass.TypesInfo, fd.Body, recvObj) {
			pass.Reportf(fd.Name.Pos(), "exported method (*%s).%s dereferences its receiver without a nil guard; "+
				"obs handles must be safe no-ops on nil (start with `if %s == nil`)",
				tn.Name(), fd.Name.Name, recvObj.Name())
		}
	}
}

// nilSafe reports whether calls on a *T need no nil guard. The
// observability seam rests on a nil *obs.Observer being a zero-cost
// no-op, so T qualifies when it is an exported type declared in
// internal/obs with an exported pointer-receiver method: the set
// checkNilSafety holds to the convention. It keys on the declaring
// package, not the type's name, so an Observer declared elsewhere is not
// covered.
func nilSafe(named *types.Named) bool {
	tn := named.Obj()
	if !tn.Exported() || tn.Pkg() == nil || !inScope(tn.Pkg().Path(), "internal/obs") {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr && m.Exported() {
			return true
		}
	}
	return false
}

// pointerReceiver returns the receiver's type name and object when fd
// is a method with a pointer receiver on a type declared in this
// package.
func pointerReceiver(info *types.Info, fd *ast.FuncDecl) (*types.TypeName, types.Object) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil, nil
	}
	field := fd.Recv.List[0]
	t := info.TypeOf(field.Type)
	p, ok := t.(*types.Pointer)
	if !ok {
		return nil, nil
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return nil, nil
	}
	var recvObj types.Object
	if len(field.Names) == 1 && field.Names[0].Name != "_" {
		recvObj = info.Defs[field.Names[0]]
	}
	return named.Obj(), recvObj
}

// hasNilGuard reports whether body compares recv against nil anywhere.
func hasNilGuard(info *types.Info, body *ast.BlockStmt, recv types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if isNilIdent(info, y) {
			x, y = y, x
		}
		if !isNilIdent(info, x) {
			return true
		}
		if id, ok := y.(*ast.Ident); ok && info.Uses[id] == recv {
			found = true
		}
		return true
	})
	return found
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// derefsReceiver reports whether body accesses a field of recv directly
// (method calls on recv are fine: the callee guards itself).
func derefsReceiver(info *types.Info, body *ast.BlockStmt, recv types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || info.Uses[id] != recv {
				return true
			}
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				found = true
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && info.Uses[id] == recv {
				found = true
			}
		}
		return true
	})
	return found
}

// metricNameRE is the naming convention: commchar_-prefixed snake_case.
var metricNameRE = regexp.MustCompile(`^commchar(_[a-z0-9]+)+$`)

// metricPrefixRE validates the constant prefix of a concatenated name:
// it must itself be convention-shaped and end at an underscore.
var metricPrefixRE = regexp.MustCompile(`^commchar(_[a-z0-9]+)*_$`)

// registryMethods maps obs.Registry registration methods to whether
// they register a counter (and thus need the _total suffix).
var registryMethods = map[string]bool{
	"CounterFunc": true, "CounterVec": true,
	"Gauge": false, "ConstGauge": false, "Histogram": false,
}

// checkMetricName enforces the naming discipline at every Registry
// registration call site.
func checkMetricName(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	obj, _ := callee(info, call).(*types.Func)
	if obj == nil || len(call.Args) == 0 {
		return
	}
	isCounter, ok := registryMethods[obj.Name()]
	if !ok || !isRegistryMethod(obj) {
		return
	}
	nameArg := call.Args[0]
	name, known := constantString(info, nameArg)
	if !known {
		if !constPrefixedConcat(info, nameArg) {
			pass.Reportf(nameArg.Pos(), "dynamic metric name in %s: every distinct value creates a new time series; "+
				"use a constant commchar_* name (concatenating onto a constant commchar_* prefix is fine)", obj.Name())
		}
		return
	}
	switch {
	case !metricNameRE.MatchString(name):
		pass.Reportf(nameArg.Pos(), "metric name %q violates the commchar_* snake_case convention", name)
	case isCounter && !strings.HasSuffix(name, "_total"):
		pass.Reportf(nameArg.Pos(), "counter %q must end in _total", name)
	}
	// Vector registrations additionally take a label name, which must be
	// constant: a dynamic label name is unbounded cardinality by
	// construction.
	if obj.Name() == "CounterVec" && len(call.Args) >= 3 {
		if _, known := constantString(info, call.Args[2]); !known {
			pass.Reportf(call.Args[2].Pos(), "dynamic label name in CounterVec: label names must be constants "+
				"so series cardinality stays bounded")
		}
	}
}

// isRegistryMethod reports whether obj is a method on the obs Registry
// type (module path or fixture path).
func isRegistryMethod(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Name() == "Registry" && tn.Pkg() != nil && inScope(tn.Pkg().Path(), "internal/obs")
}

// constPrefixedConcat accepts the idiomatic dynamic-but-bounded form:
// a + chain whose leftmost operand is a convention-shaped constant
// prefix ("commchar_dist_" + name).
func constPrefixedConcat(info *types.Info, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.ADD {
		return false
	}
	left := be.X
	for {
		inner, ok := ast.Unparen(left).(*ast.BinaryExpr)
		if !ok || inner.Op != token.ADD {
			break
		}
		left = inner.X
	}
	prefix, known := constantString(info, left)
	return known && metricPrefixRE.MatchString(prefix)
}

// checkRedundantNilGuard flags `if x != nil { x.M(...) }` where x's
// type is nil-safe: the guard re-implements what the callee already
// guarantees, and readers learn to doubt the seam.
func checkRedundantNilGuard(pass *Pass, ifStmt *ast.IfStmt) {
	if ifStmt.Init != nil || ifStmt.Else != nil || len(ifStmt.Body.List) != 1 {
		return
	}
	cond, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ {
		return
	}
	guarded := ast.Unparen(cond.X)
	if isNilIdent(pass.TypesInfo, guarded) {
		guarded = ast.Unparen(cond.Y)
	} else if !isNilIdent(pass.TypesInfo, cond.Y) {
		return
	}
	t := pass.TypesInfo.TypeOf(guarded)
	p, ok := t.(*types.Pointer)
	if !ok {
		return
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || !nilSafe(named) {
		return
	}
	stmt, ok := ifStmt.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return
	}
	callExpr, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(callExpr.Fun).(*ast.SelectorExpr)
	if !ok || types.ExprString(ast.Unparen(sel.X)) != types.ExprString(guarded) {
		return
	}
	pass.Reportf(ifStmt.Pos(), "redundant nil guard: *%s is nil-safe (obsconv holds every exported type of %s to it); call %s.%s directly",
		named.Obj().Name(), named.Obj().Pkg().Path(), types.ExprString(guarded), sel.Sel.Name)
}
