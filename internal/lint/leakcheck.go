package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LeakCheckAnalyzer guards goroutine and resource lifecycles: every
// sweep worker, coordinator, and observer this repo starts must be
// stoppable, because the fault-injection tests kill and restart them
// constantly. Tickers and timers must be stopped, goroutines that loop
// must have a cancellation path (context, done channel, select), and
// handles returned by constructors must be released.
var LeakCheckAnalyzer = &Analyzer{
	Name: "leakcheck",
	Doc: "requires Stop on tickers/timers, a cancellation path in looping " +
		"goroutines, and release of constructor-returned handles",
	Run: runLeakCheck,
}

// releaseMethods are the recognized handle-release method names, in
// preference order.
var releaseMethods = []string{"Close", "Stop", "Shutdown"}

func runLeakCheck(pass *Pass) error {
	fns := funcsIn(pass.Files)
	byObj := make(map[*types.Func]*ast.FuncDecl)
	for _, fd := range fns {
		obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		byObj[obj] = fd
		// Record the package's endless loops for its importers; go
		// statements within the package read the declarations instead.
		if !signatureTakesContext(obj.Type().(*types.Signature)) && loopsWithoutCancel(pass.TypesInfo, fd.Body) {
			pass.facts.add(obj, funcFacts{Loops: true})
		}
	}
	if !isInternal(pass.Pkg.Path()) && pass.Pkg.Name() != "main" {
		return nil
	}
	for _, fd := range fns {
		checkTimers(pass, fd)
		checkGoroutines(pass, fd, byObj)
		checkHandles(pass, fd)
	}
	return nil
}

// releaseMethodOf returns the release method name of t when t is (a
// pointer to) a named type defined in pkg whose method set includes
// Close, Stop, or Shutdown; "" otherwise.
func releaseMethodOf(pkg *types.Package, t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pkg {
		return ""
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for _, name := range releaseMethods {
		if sel := ms.Lookup(pkg, name); sel != nil {
			return name
		}
	}
	return ""
}

// signatureTakesContext reports whether any parameter is a
// context.Context: such a function is cancellable by contract.
func signatureTakesContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// loopsWithoutCancel reports whether body contains an unbounded loop
// (a `for` with no condition) and no cancellation evidence anywhere: no
// reference to a context value, no channel receive, no range over a
// channel, no select.
func loopsWithoutCancel(info *types.Info, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	unbounded, cancel := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond == nil {
				unbounded = true
			}
		case *ast.SelectStmt:
			cancel = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				cancel = true
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				cancel = true
			}
		case *ast.Ident:
			if isContextType(info.TypeOf(n)) {
				cancel = true
			}
		}
		return true
	})
	return unbounded && !cancel
}

// checkTimers flags time.Tick (unstoppable) and tickers/timers that are
// neither stopped nor handed off.
func checkTimers(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isPkgFunc(callee(info, call), "time", "Tick") {
				pass.Reportf(call.Pos(), "time.Tick leaks its ticker; use time.NewTicker and defer Stop")
			}
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(info, call)
		if !isPkgFunc(fn, "time", "NewTicker") && !isPkgFunc(fn, "time", "NewTimer") {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		released, escapes := handleDisposition(info, fd.Body, obj, id, releaseMethods)
		if !released && !escapes {
			pass.Reportf(as.Pos(), "%s.%s never stops %s; the ticker/timer goroutine leaks (defer %s.Stop())",
				"time", fn.Name(), id.Name, id.Name)
		}
		return true
	})
}

// handleDisposition classifies how obj (a handle-holding local) is used
// in body: released reports a call to one of methods on it; escapes
// reports any use other than a selector access (returned, reassigned,
// passed along, stored), where responsibility moves elsewhere. def is
// the defining ident, which never counts as a use.
func handleDisposition(info *types.Info, body *ast.BlockStmt, obj types.Object, def *ast.Ident, methods []string) (released, escapes bool) {
	selUses := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && info.Uses[id] == obj {
			selUses[id] = true
			for _, m := range methods {
				if sel.Sel.Name == m {
					released = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id != def && info.Uses[id] == obj && !selUses[id] {
			escapes = true
		}
		return true
	})
	return released, escapes
}

// checkGoroutines flags go statements whose body (or callee) loops
// forever without a cancellation path.
func checkGoroutines(pass *Pass, fd *ast.FuncDecl, byObj map[*types.Func]*ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			if loopsWithoutCancel(info, fun.Body) {
				pass.Reportf(g.Pos(), "goroutine loops forever with no cancellation path "+
					"(no ctx, channel receive, or select); plumb a context or done channel so shutdown can reach it")
			}
		default:
			obj, _ := callee(info, g.Call).(*types.Func)
			if obj == nil {
				return true
			}
			if decl, local := byObj[obj]; local {
				sig := obj.Type().(*types.Signature)
				if !signatureTakesContext(sig) && !goCallPassesContext(info, g.Call) && loopsWithoutCancel(info, decl.Body) {
					pass.Reportf(g.Pos(), "go %s starts a loop with no cancellation path; "+
						"plumb a context or done channel so shutdown can reach it", obj.Name())
				}
			} else if obj.Pkg() != pass.Pkg && pass.facts.of(obj).Loops {
				pass.Reportf(g.Pos(), "go %s starts a loop with no cancellation path "+
					"(proven in %s); plumb a context or done channel so shutdown can reach it",
					qualifiedName(obj), obj.Pkg().Path())
			}
		}
		return true
	})
}

// goCallPassesContext reports whether the go statement's call passes a
// context argument (the callee may consume it variadically or the
// signature check already caught it; this covers closures over args).
func goCallPassesContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContextType(info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// checkHandles flags discarded or never-released results of handle
// constructors, local or imported.
func checkHandles(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(st.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, release := handleCallee(pass, call); obj != nil {
				pass.Reportf(call.Pos(), "result of %s is a handle but is discarded; release it with %s",
					qualifiedName(obj), release)
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			obj, release := handleCallee(pass, call)
			if obj == nil {
				return true
			}
			for _, l := range st.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				lobj := info.Defs[id]
				if lobj == nil {
					lobj = info.Uses[id]
				}
				if lobj == nil || !typeHasMethod(lobj.Type(), release) {
					continue
				}
				released, escapes := handleDisposition(info, fd.Body, lobj, id, releaseMethods)
				if !released && !escapes {
					pass.Reportf(st.Pos(), "%s returned by %s is never released and never escapes; defer %s.%s()",
						id.Name, qualifiedName(obj), id.Name, release)
				}
			}
		}
		return true
	})
}

// handleCallee resolves call's callee and, when it is a handle
// constructor, the method that releases what it returns. A handle
// constructor is a New*, Start* or Open* function of an internal package
// (or of the package under analysis) with a result of a type declared
// beside it that has a Close, Stop or Shutdown method. Export data
// carries all of that, so no fact is needed.
func handleCallee(pass *Pass, call *ast.CallExpr) (*types.Func, string) {
	obj, _ := callee(pass.TypesInfo, call).(*types.Func)
	if obj == nil || obj.Pkg() == nil || (!isInternal(obj.Pkg().Path()) && obj.Pkg() != pass.Pkg) {
		return nil, ""
	}
	name := obj.Name()
	if !strings.HasPrefix(name, "New") && !strings.HasPrefix(name, "Start") && !strings.HasPrefix(name, "Open") {
		return nil, ""
	}
	results := obj.Type().(*types.Signature).Results()
	for i := 0; i < results.Len(); i++ {
		if m := releaseMethodOf(obj.Pkg(), results.At(i).Type()); m != "" {
			return obj, m
		}
	}
	return nil, ""
}

// typeHasMethod reports whether t (or *t) has a method named name.
func typeHasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}
