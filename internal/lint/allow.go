package lint

import (
	"go/token"
	"strconv"
	"strings"
)

// AllowRule is the pseudo-rule under which problems with //lint:allow
// comments themselves are reported. It cannot be suppressed.
const AllowRule = "allow"

// An allow is one parsed //lint:allow comment.
//
//	//lint:allow <rule> <justification>
//
// It suppresses diagnostics of exactly the named rule on the comment's
// own line (trailing position) or on the line immediately below it
// (preceding position). A justification is mandatory: unexplained
// suppressions are what let the hand-audited conventions rot in the
// first place.
type allow struct {
	pos    token.Pos
	file   string
	line   int
	rule   string
	reason string
	used   bool
}

const allowPrefix = "//lint:allow"

// parseAllows extracts every //lint:allow comment from the package.
func parseAllows(pkg *Package) []*allow {
	var allows []*allow
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				rule, reason, _ := strings.Cut(rest, " ")
				posn := pkg.Fset.Position(c.Pos())
				allows = append(allows, &allow{
					pos:    c.Pos(),
					file:   posn.Filename,
					line:   posn.Line,
					rule:   rule,
					reason: strings.TrimSpace(reason),
				})
			}
		}
	}
	return allows
}

// applyAllows filters diags through the package's //lint:allow
// comments and appends meta-diagnostics for malformed, unknown-rule,
// and stale allows.
func applyAllows(pkg *Package, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	allows := parseAllows(pkg)
	if len(allows) == 0 {
		return diags
	}
	known := make(map[string]bool)
	ran := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	var kept []Diagnostic
	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		suppressed := false
		for _, al := range allows {
			if al.rule != d.Rule || al.file != posn.Filename {
				continue
			}
			if posn.Line == al.line || posn.Line == al.line+1 {
				al.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}

	for _, al := range allows {
		switch {
		case al.rule == "":
			kept = append(kept, Diagnostic{Pos: al.pos, Rule: AllowRule,
				Message: "malformed //lint:allow: want //lint:allow <rule> <justification>"})
		case !known[al.rule]:
			kept = append(kept, Diagnostic{Pos: al.pos, Rule: AllowRule,
				Message: "unknown rule " + strconv.Quote(al.rule) + " in //lint:allow (known: " +
					strings.Join(AnalyzerNames(), ", ") + ")"})
		case al.reason == "":
			kept = append(kept, Diagnostic{Pos: al.pos, Rule: AllowRule,
				Message: "//lint:allow " + al.rule + " needs a justification after the rule name"})
		case !al.used && ran[al.rule]:
			// Stale only when the named analyzer actually ran on this
			// pass; a single-analyzer test run must not flag allows
			// aimed at the other rules.
			kept = append(kept, Diagnostic{Pos: al.pos, Rule: AllowRule,
				Message: "stale //lint:allow " + al.rule + ": it suppresses no diagnostic on this or the next line"})
		}
	}
	return kept
}
