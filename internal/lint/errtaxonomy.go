package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// taxonomyPackages are the packages whose errors cross the pipeline
// boundary: resilience.Classify walks their error chains with
// errors.Is/errors.As to decide retry-vs-permanent and degraded-vs-fail
// semantics, and the chaos tests assert on wrapped sentinel types. An
// opaque wrap (%v, %s, err.Error()) severs the chain and silently turns
// a transient network error into a permanent failure, or hides a
// cancellation from its exit code.
var taxonomyPackages = []string{
	"internal/pipeline",
	"internal/core",
	"internal/trace",
	// The taxonomy layer itself and the sweep driver sit on the same
	// boundary: a stringified wrap inside either defeats Classify just
	// as surely (retry.Do's "last attempt: %v" was the live instance).
	"internal/resilience",
	"internal/experiments",
	// The distributed layer classifies its RPC errors to decide whether
	// to retry or keep knocking on a restarting coordinator; a
	// stringified wrap there breaks failover.
	"internal/dist",
}

// ErrTaxonomyAnalyzer enforces the PR 3 error taxonomy at the pipeline
// boundary:
//
//   - fmt.Errorf with an error-typed argument must use %w so the cause
//     stays reachable by errors.Is/As (and thereby by
//     resilience.Classify);
//   - err.Error() must not be passed to fmt.Errorf or errors.New: it
//     flattens the chain to a string before anyone can classify it.
var ErrTaxonomyAnalyzer = &Analyzer{
	Name: "errtaxonomy",
	Doc: "checks that errors crossing the pipeline boundary are wrapped with %w " +
		"(or classified via internal/resilience), never stringified",
	Run: runErrTaxonomy,
}

func runErrTaxonomy(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), taxonomyPackages...) {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := callee(info, call)
			switch {
			case isPkgFunc(obj, "fmt", "Errorf"):
				checkErrorf(pass, call)
			case isPkgFunc(obj, "errors", "New"):
				checkStringifiedArgs(pass, call, "errors.New")
			}
			return true
		})
	}
	return nil
}

// checkErrorf flags fmt.Errorf calls that format an error value with a
// stringifying verb instead of wrapping it.
func checkErrorf(pass *Pass, call *ast.CallExpr) {
	checkStringifiedArgs(pass, call, "fmt.Errorf")
	if len(call.Args) < 2 {
		return
	}
	format, known := constantString(pass.TypesInfo, call.Args[0])
	if !known || strings.Contains(format, "%w") {
		// Either already wrapping, or the format is built dynamically
		// (the err.Error() check above still covers the common evasion).
		return
	}
	for _, arg := range call.Args[1:] {
		if implementsError(pass.TypesInfo.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "error value formatted with %%v/%%s in fmt.Errorf; "+
				"use %%w so errors.Is/As and resilience.Classify can still see the cause")
		}
	}
}

// checkStringifiedArgs flags X.Error() calls used as arguments to the
// named error constructor.
func checkStringifiedArgs(pass *Pass, call *ast.CallExpr, constructor string) {
	info := pass.TypesInfo
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok || len(inner.Args) != 0 {
				return true
			}
			sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Error" {
				return true
			}
			if implementsError(info.TypeOf(sel.X)) {
				pass.Reportf(inner.Pos(), "err.Error() inside %s flattens the error chain to a string; "+
					"pass the error itself (wrap with %%w) so the resilience taxonomy can classify it",
					constructor)
			}
			return true
		})
	}
}

// constantString evaluates expr to a compile-time string if possible.
func constantString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
