package lint

import (
	"go/ast"
	"go/types"
)

// boundaryPackages are the packages on the error-value side of the
// pipeline boundary: failures there must surface as classified errors
// so internal/cli can map them onto the typed exit codes. The
// simulation-model packages (sim, mesh, mp, spasm, ccnuma, workload,
// stats, apps/*) are deliberately NOT listed: their panics model
// simulated-machine invariant violations and are converted to
// *resilience.PanicError at the pipeline's recovery boundary.
var boundaryPackages = []string{
	"internal/pipeline",
	"internal/core",
	"internal/experiments",
	"internal/trace",
	"internal/report",
	"internal/resilience",
	"internal/fault",
	"internal/analytic",
	"internal/lint",
}

// ExitCodeAnalyzer preserves the typed exit-code contract
// (0 ok / 1 fail / 2 usage / 3 degraded / 130 cancelled) introduced in
// PR 3:
//
//   - os.Exit and log.Fatal* are forbidden outside internal/cli and the
//     main function of a main package: they exit with an untyped status
//     and skip deferred cleanup;
//   - panic is additionally forbidden in the boundary packages (and in
//     main packages outside func main), where failures must be error
//     values for resilience.Classify.
var ExitCodeAnalyzer = &Analyzer{
	Name: "exitcode",
	Doc: "forbids os.Exit, log.Fatal*, and boundary-package panics outside " +
		"internal/cli and func main, preserving the typed exit-code contract",
	Run: runExitCode,
}

func runExitCode(pass *Pass) error {
	path := pass.Pkg.Path()
	if inScope(path, "internal/cli") {
		return nil
	}
	isMainPkg := pass.Pkg.Name() == "main"
	panicScoped := inScope(path, boundaryPackages...) || isMainPkg
	for _, fn := range funcsIn(pass.Files) {
		if isMainPkg && fn.Recv == nil && fn.Name.Name == "main" {
			continue // the one place a main package may exit or panic
		}
		checkExits(pass, fn, panicScoped)
	}
	return nil
}

// checkExits reports exit-style calls in fn.
func checkExits(pass *Pass, fn *ast.FuncDecl, panicScoped bool) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
				if panicScoped {
					pass.Reportf(call.Pos(), "panic crosses the pipeline error boundary; "+
						"return a classified error (internal/resilience) so the exit-code contract holds")
				}
				return true
			}
		}
		obj := callee(info, call)
		switch {
		case isPkgFunc(obj, "os", "Exit"):
			pass.Reportf(call.Pos(), "os.Exit bypasses the typed exit-code contract "+
				"(0/1/2/3/130) and deferred cleanup; return an error to internal/cli instead")
		case isPkgFunc(obj, "log", "Fatal"), isPkgFunc(obj, "log", "Fatalf"), isPkgFunc(obj, "log", "Fatalln"):
			pass.Reportf(call.Pos(), "log.%s exits with an untyped status; "+
				"return an error to internal/cli so the exit-code contract holds", obj.Name())
		}
		return true
	})
}
