package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// simulationPackages are the packages whose observable behaviour must be
// a pure function of the RunSpec: they may consume only simulated cycles
// (sim.Now) and seeded RNG streams (sim/rand), never the host clock or
// the process-global rand source. One stray time.Now here silently
// breaks the regression-fit reproducibility of the SAS methodology.
var simulationPackages = []string{
	"internal/sim",
	"internal/core",
	"internal/stats",
	"internal/mesh",
	"internal/ccnuma",
	// The collective extractor reconstructs per-rank timelines from the
	// delivery log; its instance tables are keyed maps, so an unsorted
	// iteration there reorders the characterization between runs.
	"internal/coll",
}

// clockedPackages are the packages that may observe the host clock, but
// only through the obs.Clock seam: internal/obs owns the single
// sanctioned real-clock shim (obs.System, carrying the one permanent
// //lint:allow), internal/pipeline times its stages against an injected
// Clock so a fake clock makes every export reproducible, and
// internal/dist makes every lease/expiry/speculation decision against
// the coordinator's injected Clock so tests can drive straggler hedging
// deterministically. A bare time.Now here bypasses the injection point
// and is flagged; real tickers and timers that merely pace loops carry
// explicit //lint:allow justifications.
var clockedPackages = []string{
	"internal/obs",
	"internal/pipeline",
	"internal/dist",
}

// wallClockFuncs are the time package entry points that observe or wait
// on the host clock. Conversions and constants (time.Duration,
// time.Millisecond) remain fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// DeterminismAnalyzer enforces the PR 2 guarantee that a sweep's output
// is byte-identical at -parallel=1 and -parallel=N, cold or warm:
//
//   - a `range` over a map whose body appends to an outer slice must be
//     followed by a sort of that slice in the same function; a map
//     range that writes or prints directly is always flagged (the
//     iteration order escapes before any sort could repair it);
//   - sort.Slice/sort.SliceStable/slices.SortFunc comparators that
//     order struct elements by a single projected key are flagged: a
//     partial order plus a nondeterministic input permutation is
//     exactly the tie-breaking bug class fixed by hand in PR 2;
//   - inside the simulation packages, wall-clock time.* and the
//     process-global math/rand source are forbidden outright.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "flags map-iteration order, tie-less sorts, wall clocks, and global RNG " +
		"that would make a characterization depend on schedule instead of spec",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, fn := range funcsIn(pass.Files) {
		checkMapRanges(pass, fn)
		checkSortCalls(pass, fn)
	}
	if inScope(pass.Pkg.Path(), simulationPackages...) {
		checkWallClockAndRand(pass)
	}
	if inScope(pass.Pkg.Path(), clockedPackages...) {
		checkWallClockBehindClock(pass)
	}
	return nil
}

// checkMapRanges flags order-sensitive map iteration in fn.
func checkMapRanges(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	var ranges []*ast.RangeStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ranges = append(ranges, rs)
				}
			}
		}
		return true
	})
	for _, rs := range ranges {
		appended, escaped := mapRangeEffects(info, rs)
		if escaped != "" {
			pass.Reportf(rs.For, "map iteration order reaches %s directly; "+
				"collect and sort keys first", escaped)
			continue
		}
		for _, obj := range appended {
			if !sortedLaterIn(info, fn.Body, rs.End(), obj) {
				pass.Reportf(rs.For, "map range appends to %q but the function never sorts it; "+
					"iteration order will leak into the output", obj.Name())
			}
		}
	}
}

// mapRangeEffects scans a map-range body for order-sensitive effects:
// appends to variables declared outside the loop (returned for a
// later-sort check) and writes/prints/hashes (returned as a description
// of the escape, which no later sort can repair).
func mapRangeEffects(info *types.Info, rs *ast.RangeStmt) (appended []types.Object, escaped string) {
	seen := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" {
				if target := appendTarget(info, call); target != nil &&
					target.Pos().IsValid() && !within(target.Pos(), rs) && !seen[target] {
					seen[target] = true
					appended = append(appended, target)
				}
				return true
			}
		}
		if name := orderEscapingCallee(info, call); name != "" && escaped == "" {
			escaped = name
		}
		return true
	})
	return appended, escaped
}

// appendTarget resolves the variable (or struct field) receiving
// append's result in `x = append(x, ...)` / `s.f = append(s.f, ...)`;
// it returns nil for appends into fresh locals or other expressions.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	switch arg := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		return info.Uses[arg]
	case *ast.SelectorExpr:
		return info.Uses[arg.Sel]
	}
	return nil
}

// orderEscapingCallee reports a human-readable name when call emits
// bytes whose order is observable: fmt printing, io writes, hashing.
func orderEscapingCallee(info *types.Info, call *ast.CallExpr) string {
	obj := callee(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		return "fmt." + name
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune" || name == "Sum" {
			return "method " + name
		}
	}
	return ""
}

// within reports whether pos falls inside node's source extent.
func within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos < node.End()
}

// sortedLaterIn reports whether, after position after, the function
// body contains a sort call mentioning obj.
func sortedLaterIn(info *types.Info, body *ast.BlockStmt, after token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}

// isSortCall reports whether call invokes the sort or slices package.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := callee(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "sort" || p == "slices"
}

// checkSortCalls flags single-key struct comparators in fn.
func checkSortCalls(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fnObj, ok := callee(info, call).(*types.Func)
		if !ok || fnObj.Pkg() == nil {
			return true
		}
		switch {
		case fnObj.Pkg().Path() == "sort" && (fnObj.Name() == "Slice" || fnObj.Name() == "SliceStable"),
			fnObj.Pkg().Path() == "slices" && (fnObj.Name() == "SortFunc" || fnObj.Name() == "SortStableFunc"):
		default:
			return true
		}
		lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
		if !ok {
			return true
		}
		if key := singleKeyComparator(info, lit); key != "" {
			pass.Reportf(call.Pos(), "%s.%s orders structs by %s alone, which is not a total order; "+
				"break ties on a unique field so equal keys cannot permute under -parallel",
				fnObj.Pkg().Name(), fnObj.Name(), key)
		}
		return true
	})
}

// singleKeyComparator returns a description of the sort key when lit's
// body is a single `return a < b` (or >) over one projected field or
// method of a multi-field struct element — a comparator with no
// tie-breaker. It returns "" for comparators over whole basic elements,
// multi-statement bodies, or || / && tie-break chains.
func singleKeyComparator(info *types.Info, lit *ast.FuncLit) string {
	if len(lit.Body.List) != 1 {
		return ""
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	bin, ok := ast.Unparen(ret.Results[0]).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.LSS && bin.Op != token.GTR) {
		return ""
	}
	if key := projectedKey(info, bin.X); key != "" && projectedKey(info, bin.Y) != "" {
		return key
	}
	return ""
}

// projectedKey describes expr when it projects a single key out of a
// struct with more than one field (a field selector or niladic method
// call on the element); "" otherwise.
func projectedKey(info *types.Info, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) == 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && multiFieldStruct(info.TypeOf(sel.X)) {
			return "method " + sel.Sel.Name + "()"
		}
		return ""
	}
	if sel, ok := expr.(*ast.SelectorExpr); ok && multiFieldStruct(info.TypeOf(sel.X)) {
		return "field ." + sel.Sel.Name
	}
	return ""
}

// multiFieldStruct reports whether t (or what it points to) is a struct
// with at least two fields, i.e. a type where one field cannot carry
// the whole identity.
func multiFieldStruct(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return ok && st.NumFields() > 1
}

// checkWallClockBehindClock forbids bare host-clock reads inside the
// clocked packages: all wall time there must flow through an injected
// obs.Clock. The single legitimate time.Now — obs.System's real-clock
// shim — carries a permanent //lint:allow, which also proves the allow
// machinery keeps working.
func checkWallClockBehindClock(pass *Pass) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := callee(info, call).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // Clock.Now and friends are the sanctioned path
			}
			if fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "wall-clock time.%s outside obs.Clock; "+
					"inject a Clock (obs.System in production, obs.Fake in tests) so traced exports stay reproducible", fn.Name())
			}
			return true
		})
	}
}

// checkWallClockAndRand forbids host-clock reads and the global
// math/rand source inside the simulation packages.
func checkWallClockAndRand(pass *Pass) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := callee(info, call).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. a seeded *rand.Rand) are fine
			}
			switch pkg := fn.Pkg().Path(); {
			case pkg == "time" && wallClockFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "wall-clock time.%s in a simulation package; "+
					"model time must come from sim cycles so replays are schedule-independent", fn.Name())
			case (pkg == "math/rand" || pkg == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
				pass.Reportf(call.Pos(), "process-global rand.%s in a simulation package; "+
					"draw from the spec-seeded stream so runs replay identically", fn.Name())
			}
			return true
		})
	}
}
