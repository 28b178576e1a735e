package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is a stdlib-only stand-in for
// golang.org/x/tools/go/analysis/analysistest: it loads fixture
// packages from a testdata/src GOPATH-style tree, type-checks them
// (resolving standard-library imports through `go list -export` build
// cache data and sibling fixtures from source), runs analyzers, and
// compares diagnostics against `// want "regexp"` comments.

// A FixtureLoader loads and caches type-checked packages beneath a
// testdata/src root. Import paths that exist as directories under the
// root are compiled from source; anything else resolves through the go
// command's export data, so fixtures may import both each other and
// the standard library.
type FixtureLoader struct {
	Root string // the testdata/src directory
	Fset *token.FileSet

	mu   sync.Mutex
	pkgs map[string]*Package
	gc   types.Importer
}

// newFixtureLoader returns a loader rooted at root (testdata/src).
func newFixtureLoader(root string) *FixtureLoader {
	fset := token.NewFileSet()
	l := &FixtureLoader{Root: root, Fset: fset, pkgs: make(map[string]*Package)}
	l.gc = importer.ForCompiler(fset, "gc", exportDataLookup())
	return l
}

// exportDataLookup resolves an import path to compiler export data via
// `go list -export`, the same data `go vet` feeds the real vettool.
func exportDataLookup() func(path string) (io.ReadCloser, error) {
	var mu sync.Mutex
	cache := make(map[string]string)
	return func(path string) (io.ReadCloser, error) {
		mu.Lock()
		file, ok := cache[path]
		mu.Unlock()
		if !ok {
			out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
			if err != nil {
				return nil, fmt.Errorf("go list -export %s: %w", path, err)
			}
			file = strings.TrimSpace(string(out))
			if file == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			mu.Lock()
			cache[path] = file
			mu.Unlock()
		}
		return os.Open(file)
	}
}

// Load type-checks the fixture package at import path (a directory
// beneath Root), memoizing the result.
func (l *FixtureLoader) Load(path string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.load(path)
}

func (l *FixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files", path)
	}
	info := newInfo()
	tcfg := types.Config{
		Importer: &fixtureImporter{loader: l},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := tcfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", path, err)
	}
	pkg := &Package{Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// fixtureImporter resolves fixture-local imports from source and
// everything else from export data.
type fixtureImporter struct{ loader *FixtureLoader }

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	l := fi.loader
	if st, err := os.Stat(filepath.Join(l.Root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.gc.Import(path)
}

// A wantExpectation is one `// want "regexp"` (diagnostic) or
// `// want fact:"regexp"` (recorded fact) assertion.
type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	fact bool
	met  bool
}

var (
	wantRE    = regexp.MustCompile(`// want((?:[ \t]+(?:fact:)?"(?:[^"\\]|\\.)*")+)`)
	wantArgRE = regexp.MustCompile(`(fact:)?"(?:[^"\\]|\\.)*"`)
)

// parseWants extracts want expectations from the fixture's comments.
func parseWants(pkg *Package) ([]*wantExpectation, error) {
	var wants []*wantExpectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, q := range wantArgRE.FindAllString(m[1], -1) {
					isFact := strings.HasPrefix(q, "fact:")
					pat, err := strconv.Unquote(strings.TrimPrefix(q, "fact:"))
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %s: %w", posn.Filename, posn.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %w", posn.Filename, posn.Line, err)
					}
					wants = append(wants, &wantExpectation{
						file: posn.Filename, line: posn.Line, re: re, text: pat, fact: isFact,
					})
				}
			}
		}
	}
	return wants, nil
}

// failure is one mismatch between reported and expected diagnostics.
type failure struct {
	pos  string
	kind string
	text string
}

// checkFixture runs the analyzers over the fixture package at path and
// matches the surviving diagnostics against the fixture's `// want`
// comments. Every diagnostic must be wanted on its line (pattern
// matched against "rule: message"), and every want must fire. Fact
// assertions (`// want fact:"…"`) match against the facts recorded for
// this package's functions, rendered by factRenders at the line of the
// function's name; unasserted facts are not failures (fixtures opt in
// to the facts they pin). Fixture-local imports are fact-analyzed
// first, so cross-package facts flow as under the unitchecker, which
// TestVetToolCarriesFacts checks through real vetx files.
// The returned failures are empty on success.
func checkFixture(l *FixtureLoader, path string, analyzers ...*Analyzer) ([]failure, error) {
	diags, store, pkg, err := runFixture(l, path, analyzers)
	if err != nil {
		return nil, err
	}
	wants, err := parseWants(pkg)
	if err != nil {
		return nil, err
	}

	var failures []failure
	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		text := d.Rule + ": " + d.Message
		matched := false
		for _, w := range wants {
			if !w.fact && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(text) {
				w.met = true
				matched = true
			}
		}
		if !matched {
			failures = append(failures, failure{
				pos:  fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line),
				kind: "unexpected diagnostic",
				text: text,
			})
		}
	}
	for _, fd := range funcsIn(pkg.Files) {
		obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		posn := pkg.Fset.Position(obj.Pos())
		for _, render := range factRenders(objectKey(obj), store.of(obj)) {
			for _, w := range wants {
				if w.fact && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(render) {
					w.met = true
				}
			}
		}
	}
	for _, w := range wants {
		if !w.met {
			kind := "unmatched want"
			if w.fact {
				kind = "unmatched fact want"
			}
			failures = append(failures, failure{
				pos:  fmt.Sprintf("%s:%d", filepath.Base(w.file), w.line),
				kind: kind,
				text: w.text,
			})
		}
	}
	sort.Slice(failures, func(i, j int) bool {
		if failures[i].pos != failures[j].pos {
			return failures[i].pos < failures[j].pos
		}
		return failures[i].text < failures[j].text
	})
	return failures, nil
}

// factRenders renders a function's record as `// want fact:"…"`
// assertions see it: "key: UncancellableLoop", "key: Blocking(op)".
func factRenders(key string, f funcFacts) []string {
	var out []string
	if f.Loops {
		out = append(out, key+": UncancellableLoop")
	}
	if f.Blocks != "" {
		out = append(out, key+": Blocking("+f.Blocks+")")
	}
	return out
}

// runFixture loads the fixture at path, fact-analyzes its fixture-local
// imports into a fresh store, and runs the analyzers over it.
func runFixture(l *FixtureLoader, path string, analyzers []*Analyzer) ([]Diagnostic, *FactStore, *Package, error) {
	pkg, err := l.Load(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	store := NewFactStore()
	if err := ensureDepFacts(l, pkg, analyzers, store, map[string]bool{path: true}); err != nil {
		return nil, nil, nil, err
	}
	diags, err := RunWithFacts(pkg, analyzers, store)
	if err != nil {
		return nil, nil, nil, err
	}
	return diags, store, pkg, nil
}

// ensureDepFacts runs the analyzers over every fixture-local import of
// pkg, depth-first, discarding their diagnostics but keeping their
// recorded facts in store — the fixture-harness equivalent of the
// unitchecker seeding a unit's store from its dependencies' vetx files.
func ensureDepFacts(l *FixtureLoader, pkg *Package, analyzers []*Analyzer, store *FactStore, visited map[string]bool) error {
	for _, imp := range pkg.Types.Imports() {
		path := imp.Path()
		if visited[path] {
			continue
		}
		if st, err := os.Stat(filepath.Join(l.Root, filepath.FromSlash(path))); err != nil || !st.IsDir() {
			continue
		}
		visited[path] = true
		dep, err := l.Load(path)
		if err != nil {
			return err
		}
		if err := ensureDepFacts(l, dep, analyzers, store, visited); err != nil {
			return err
		}
		if _, err := RunWithFacts(dep, analyzers, store); err != nil {
			return err
		}
	}
	return nil
}
