package lint

import (
	"path/filepath"
	"testing"
)

// fixtureLoader is shared across the fixture tests: the loader memoizes
// type-checked packages and the `go list -export` lookups behind them.
var fixtureLoader = newFixtureLoader(filepath.Join("testdata", "src"))

// TestAnalyzerFixtures runs each analyzer over its fixture tree and
// matches the surviving diagnostics against the fixtures' `// want`
// expectations — both directions: every diagnostic must be wanted, and
// every want must fire. Fixtures without wants (exitcode/internal/cli)
// are thereby asserted clean, covering the allowed patterns.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		path      string
		analyzers []*Analyzer
	}{
		{"determ/a", []*Analyzer{DeterminismAnalyzer}},
		{"determ/internal/sim", []*Analyzer{DeterminismAnalyzer}},
		{"determ/internal/mesh", []*Analyzer{DeterminismAnalyzer}},
		{"determ/internal/coll", []*Analyzer{DeterminismAnalyzer}},
		{"ctxflow/internal/core", []*Analyzer{CtxflowAnalyzer}},
		{"ctxflow/internal/coll", []*Analyzer{CtxflowAnalyzer}},
		{"obsclock/internal/obs", []*Analyzer{DeterminismAnalyzer}},
		{"obsclock/internal/pipeline", []*Analyzer{DeterminismAnalyzer}},
		{"obsclock/internal/dist", []*Analyzer{DeterminismAnalyzer}},
		{"ctxflow/internal/pipeline", []*Analyzer{CtxflowAnalyzer}},
		{"ctxflow/internal/dist", []*Analyzer{CtxflowAnalyzer}},
		{"errtax/internal/pipeline", []*Analyzer{ErrTaxonomyAnalyzer}},
		{"errtax/internal/dist", []*Analyzer{ErrTaxonomyAnalyzer}},
		{"exitcode/internal/report", []*Analyzer{ExitCodeAnalyzer}},
		{"exitcode/internal/cli", []*Analyzer{ExitCodeAnalyzer}},
		{"exitcode/cmd/tool", []*Analyzer{ExitCodeAnalyzer}},
		{"allowfix/internal/pipeline", []*Analyzer{ErrTaxonomyAnalyzer}},
		{"leakcheck/internal/obs", []*Analyzer{LeakCheckAnalyzer}},
		{"leakcheck/internal/dist", []*Analyzer{LeakCheckAnalyzer}},
		{"lockorder/internal/store", []*Analyzer{LockOrderAnalyzer}},
		{"lockorder/internal/dist", []*Analyzer{LockOrderAnalyzer}},
		{"lockorder/internal/relay", []*Analyzer{LockOrderAnalyzer}},
		{"obsconv/internal/obs", []*Analyzer{ObsConvAnalyzer}},
		{"obsconv/internal/dist", []*Analyzer{ObsConvAnalyzer}},
		{"obsconv/internal/trace", []*Analyzer{ObsConvAnalyzer}},
		{"obsconv/internal/pipeline", []*Analyzer{ObsConvAnalyzer}},
	}
	for _, c := range cases {
		t.Run(c.path, func(t *testing.T) {
			failures, err := checkFixture(fixtureLoader, c.path, c.analyzers...)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range failures {
				t.Errorf("%s: %s: %s", f.pos, f.kind, f.text)
			}
		})
	}
}

// TestAnalyzerScoping pins the scope tables: the same source that is a
// diagnostic inside a scoped package must pass untouched outside it.
// The determ/a fixture (not a simulation package) calls nothing from
// time or math/rand, so this asserts the converse on the sim fixture:
// running the scoped checks requires the package path to match.
func TestAnalyzerScoping(t *testing.T) {
	// errtax fixtures live under .../internal/pipeline; the same
	// analyzer over a package outside the taxonomy scope reports
	// nothing even though determ/a has no //lint:allow comments.
	pkg, err := fixtureLoader.Load("determ/a")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunWithFacts(pkg, []*Analyzer{
		ErrTaxonomyAnalyzer, CtxflowAnalyzer, ExitCodeAnalyzer,
		LeakCheckAnalyzer, LockOrderAnalyzer, ObsConvAnalyzer,
	}, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		// determ/a prints from a map range (fmt.Println) and sorts with
		// partial orders, but none of that is in these analyzers'
		// jurisdiction; ctxflow's fresh-root and exitcode's panic rules
		// do not apply outside internal/ packages either.
		t.Errorf("out-of-scope diagnostic: %s at %s", d.Rule, pkg.Fset.Position(d.Pos))
	}
}

// TestSuiteOrderIsStable pins the analyzer registry: rule names are the
// //lint:allow vocabulary and must not drift silently.
func TestSuiteOrderIsStable(t *testing.T) {
	want := []string{
		"determinism", "ctxflow", "errtaxonomy", "exitcode",
		"leakcheck", "lockorder", "obsconv",
	}
	got := AnalyzerNames()
	if len(got) != len(want) {
		t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
		}
	}
}
