package lint

import (
	"strings"
	"testing"
)

// TestAllowMetaDiagnostics covers the allow problems whose fixtures
// cannot carry inline `// want` comments: a want expectation appended
// to an allow comment would become its justification, changing what is
// being tested. So this test asserts on Run's raw diagnostics instead.
func TestAllowMetaDiagnostics(t *testing.T) {
	pkg, err := fixtureLoader.Load("allowmeta/internal/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunWithFacts(pkg, []*Analyzer{ErrTaxonomyAnalyzer}, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}

	var msgs []string
	for _, d := range diags {
		if d.Rule != AllowRule {
			t.Errorf("unexpected %s diagnostic: %s (suppression must survive a missing justification)",
				d.Rule, d.Message)
			continue
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 2 {
		t.Fatalf("got %d allow diagnostics %v, want 2", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "malformed //lint:allow") {
		t.Errorf("first diagnostic %q, want the malformed bare marker", msgs[0])
	}
	if !strings.Contains(msgs[1], "needs a justification") {
		t.Errorf("second diagnostic %q, want the missing-justification report", msgs[1])
	}
}

// TestAllowSuppressesExactlyTheNamedRule runs two analyzers over the
// allowfix fixture at once and checks that the errtaxonomy allows do
// not leak onto other rules' diagnostics for the same lines.
func TestAllowSuppressesExactlyTheNamedRule(t *testing.T) {
	pkg, err := fixtureLoader.Load("allowfix/internal/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	// ctxflow now runs too: the fixture's `//lint:allow ctxflow` with no
	// ctxflow diagnostic nearby must flip from ignored to stale.
	diags, err := RunWithFacts(pkg, []*Analyzer{ErrTaxonomyAnalyzer, CtxflowAnalyzer}, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	staleCtxflow := false
	for _, d := range diags {
		if d.Rule == AllowRule && strings.Contains(d.Message, "stale //lint:allow ctxflow") {
			staleCtxflow = true
		}
	}
	if !staleCtxflow {
		t.Errorf("ctxflow ran but its unused allow was not reported stale; diagnostics: %v", diags)
	}
}
