// Package lint is the repository's static-analysis suite: seven custom
// analyzers that machine-check the invariants the reproduction's
// correctness rests on, plus the plumbing to run them under
// `go vet -vettool` (see cmd/repolint).
//
// The analyzers encode conventions that were previously enforced only
// by review:
//
//   - determinism: byte-identical characterizations at -parallel=1 and
//     -parallel=N require that nothing observable depends on map
//     iteration order, wall-clock time, or an unseeded RNG.
//   - ctxflow: cancellation must reach every replay loop, so exported
//     pipeline/core/sim entry points that loop or do I/O must accept a
//     context.Context, and library code must not mint fresh roots with
//     context.Background()/context.TODO().
//   - errtaxonomy: errors crossing the pipeline boundary must stay
//     inspectable by errors.Is/As so the resilience retry taxonomy can
//     classify them; stringifying a cause defeats that.
//   - exitcode: the typed exit-code contract (0 ok / 1 fail / 2 usage /
//     3 degraded / 130 cancelled) lives in internal/cli; nothing else
//     may exit, log.Fatal, or panic across the pipeline boundary.
//   - leakcheck: time.Ticker/Timer must be stopped, goroutines that
//     loop must have a cancellation path, and constructor-returned
//     handles (Close/Stop/Shutdown) must be released.
//   - lockorder: per-struct mutexes must be acquired in one consistent
//     order, and no lock may be held across a channel send or an HTTP
//     round-trip.
//   - obsconv: exported obs types must stay nil-receiver safe, and
//     metric names must be commchar_-prefixed snake_case with _total
//     counters and no dynamic-name cardinality.
//
// Two properties only a function's body can prove cross the import
// edge as facts in the unit's vetx file: that the function loops with
// no cancellation path (leakcheck), and how it blocks (lockorder).
// Everything else an analyzer needs about another package it works out
// from export data: a handle constructor from its name and its result
// type's release method, a nil-safe obs type from its package. The
// suite only reports: each diagnostic names its remedy, and the fix is
// made by hand.
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic)
// but is built on the standard library only, so the module keeps a zero
// third-party dependency footprint. Swapping an analyzer onto x/tools
// later is a mechanical change.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant checker. Its Run function inspects
// a package through the Pass and reports diagnostics; it does not
// mutate anything.
type Analyzer struct {
	// Name is the rule name used in diagnostics and in
	// //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects pass and reports diagnostics via pass.Report.
	Run func(pass *Pass) error
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees, excluding _test.go files:
	// test code may freely use wall clocks, panics, and fresh contexts.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// facts holds the per-function records of this package and of its
	// dependencies; analyzers read and add to it directly.
	facts *FactStore
}

// Reportf reports a diagnostic at pos under the pass's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Rule: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
}

// Package is a loaded, type-checked package ready to lint.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzers returns the full suite in a fixed order. leakcheck and
// lockorder each record and read only their own field of a function's
// facts, so no analyzer depends on another having run first.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CtxflowAnalyzer,
		ErrTaxonomyAnalyzer,
		ExitCodeAnalyzer,
		LeakCheckAnalyzer,
		LockOrderAnalyzer,
		ObsConvAnalyzer,
	}
}

// AnalyzerNames returns the rule names accepted by //lint:allow.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// RunWithFacts runs the given analyzers over pkg, applies //lint:allow
// suppression, and returns the surviving diagnostics (including
// diagnostics about the allow comments themselves) sorted by position.
// The caller seeds store with the facts of pkg's dependencies (decoded
// from their vetx files, or recorded by analyzing the dependencies
// first); after the call it also holds the facts recorded for pkg.
func RunWithFacts(pkg *Package, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
			facts:     store,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}
	diags = applyAllows(pkg, analyzers, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// inScope reports whether a package path denotes one of the named
// repository packages, with or without the module prefix, so the same
// scope tables work under `go vet` (commchar/internal/sim) and under
// the test fixtures (testdata GOPATH layout with identical paths).
func inScope(pkgPath string, pkgs ...string) bool {
	for _, p := range pkgs {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

// isInternal reports whether the package is one of the repository's
// internal library packages (as opposed to a main package or an
// example).
func isInternal(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "internal/") || strings.Contains(pkgPath, "/internal/")
}

// callee resolves the object called by call, or nil.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name (methods do not match).
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return name == "" || fn.Name() == name
}

// qualifiedName renders obj as pkg.F or pkg.T.M for diagnostics.
func qualifiedName(obj *types.Func) string {
	if obj.Pkg() == nil {
		return objectKey(obj)
	}
	return obj.Pkg().Name() + "." + objectKey(obj)
}

// funcsIn yields every function or method declaration with a body.
func funcsIn(files []*ast.File) []*ast.FuncDecl {
	var fns []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}
	return fns
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) satisfies the error
// interface. Untyped and basic types never do.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}
