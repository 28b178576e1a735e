package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// vetConfig mirrors the JSON configuration file that `go vet
// -vettool=...` hands the tool for each package unit. The field set
// matches cmd/go/internal/work's vetConfig (and x/tools'
// unitchecker.Config); unknown fields are ignored so newer toolchains
// stay compatible.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoVersion    string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	Standard     map[string]bool
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string

	SucceedOnTypecheckFailure bool
}

// VetMain implements the vettool side of the `go vet -vettool`
// protocol for one invocation:
//
//	repolint -V=full      print a version/fingerprint line (build cache key)
//	repolint -flags       print the tool's flags as JSON (it has none)
//	repolint <unit>.cfg   analyze one package unit
//
// VetMain returns the process exit code: 0 clean, 1 internal error, 2
// when diagnostics were reported (matching x/tools' unitchecker).
func VetMain(stdout, stderr io.Writer, args []string) int {
	for _, arg := range args {
		switch {
		case arg == "-V=full":
			fmt.Fprintf(stdout, "repolint version %s\n", toolFingerprint())
			return 0
		case arg == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(arg, ".cfg"):
			return vetUnit(stderr, arg)
		default:
			fmt.Fprintf(stderr, "repolint: unexpected vettool argument %q\n", arg)
			return 1
		}
	}
	fmt.Fprintf(stderr, "repolint: missing unit config argument\n")
	return 1
}

// toolFingerprint derives the tool identity line `go vet` uses as a
// cache key from the running executable's content, so rebuilding
// repolint invalidates cached vet results. The leading "lint-" keeps
// the token distinct from "devel", which cmd/go parses specially.
func toolFingerprint() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return fmt.Sprintf("lint-%x", h.Sum(nil)[:12])
			}
		}
	}
	return "lint-unknown"
}

// factBearing reports whether the unit at importPath records facts.
// Only this module's packages do; the standard library and
// (hypothetical) external deps write empty vetx files and are never
// parsed, keeping `go vet ./...` fast.
func factBearing(importPath string) bool {
	return importPath == "commchar" || strings.HasPrefix(importPath, "commchar/")
}

// vetUnit analyzes the package unit described by the config file and
// prints its diagnostics.
func vetUnit(stderr io.Writer, cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "repolint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// Dependency units arrive with VetxOnly set: they exist only so
	// their facts can be recorded. Out-of-module dependencies record
	// none, so the standard library is skipped wholesale;
	// module-local dependencies are analyzed facts-only, their
	// diagnostics discarded (the diagnostic-bearing invocation is the
	// one whose unit names the package directly).
	if cfg.VetxOnly && !factBearing(cfg.ImportPath) {
		writeVetx(cfg.VetxOutput, nil)
		return 0
	}

	pkg, err := loadUnit(&cfg)
	if err != nil {
		writeVetx(cfg.VetxOutput, nil)
		if cfg.SucceedOnTypecheckFailure || cfg.VetxOnly {
			return 0
		}
		fmt.Fprintf(stderr, "repolint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	// Seed the fact store from the module-local dependencies' vetx
	// files. Each decodes into its own package's slot, so the order
	// does not matter. A missing or undecodable vetx only costs facts,
	// never the run.
	store := NewFactStore()
	for p, vetx := range cfg.PackageVetx {
		if !factBearing(p) {
			continue
		}
		if data, err := os.ReadFile(vetx); err == nil {
			_ = store.decode(p, data)
		}
	}

	diags, err := RunWithFacts(pkg, Analyzers(), store)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 1
	}
	vetx, err := store.encode(cfg.ImportPath)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 1
	}
	writeVetx(cfg.VetxOutput, vetx)
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Rule, d.Message)
	}
	return 2
}

// loadUnit parses and type-checks the unit's non-test Go files,
// resolving imports through the compiler export data `go vet` lists in
// the config. Test files are excluded by policy (test code may panic,
// sleep, and mint contexts freely), which also means pure test
// variants ("p [p.test]" with only _test.go files) reduce to the
// already-analyzed base package or to nothing.
func loadUnit(cfg *vetConfig) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return &Package{Fset: fset, Types: types.NewPackage(cfg.ImportPath, "empty"), Info: newInfo()}, nil
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tcfg := types.Config{
		Importer: importer.ForCompiler(fset, cfg.Compiler, lookup),
		Sizes:    types.SizesFor(cfg.Compiler, runtime.GOARCH),
	}
	if cfg.GoVersion != "" {
		tcfg.GoVersion = cfg.GoVersion
	}
	info := newInfo()
	tpkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// newInfo allocates the types.Info maps the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// writeVetx records the unit's serialized facts (possibly empty) where
// the build system expects them, letting `go vet` cache the result and
// feed the facts to importing units. Errors are ignored because a
// missing facts file only costs cache hits and imported facts.
func writeVetx(path string, data []byte) {
	if path != "" {
		_ = os.WriteFile(path, data, 0o666)
	}
}
