// Repolint runs the repository's custom static-analysis suite
// (internal/lint): determinism, ctxflow, errtaxonomy, exitcode,
// leakcheck, lockorder, and obsconv.
//
// It is a `go vet` vettool. Invoked with package patterns it re-execs
// itself through the go command, so contributors and CI get identical
// output from one entry point:
//
//	go run ./cmd/repolint ./...
//
// is exactly equivalent to
//
//	go build -o repolint ./cmd/repolint
//	go vet -vettool=$(pwd)/repolint ./...
//
// It only reports: each diagnostic names its remedy, and the fix is
// made by hand. Suppress a diagnostic by putting a justified allow
// comment on the flagged line or the line above it:
//
//	//lint:allow determinism the one sanctioned wall-clock read; all other packages inject obs.Clock
//
// Exit status: 0 clean, 1 diagnostics or failure, 2 usage.
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"commchar/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches between the two faces of the tool: the vettool
// protocol endpoints that `go vet` invokes (-V=full, -flags and a
// <unit>.cfg path), and the human-facing package-pattern mode that
// wraps `go vet -vettool=<self>`.
func run(args []string) int {
	for _, a := range args {
		if a == "-V=full" || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return lint.VetMain(os.Stdout, os.Stderr, args)
		}
	}
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-h" || a == "-help" || a == "--help":
			usage()
			return 0
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "repolint: unknown flag %q\n", a)
			usage()
			return 2
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: locating own binary: %v\n", err)
		return 1
	}
	vet := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	vet.Stdout = os.Stdout
	vet.Stderr = os.Stderr
	if err := vet.Run(); err != nil {
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			return exitErr.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "repolint: running go vet: %v\n", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: repolint [packages]

Runs the repository invariant checkers (via go vet -vettool):
`)
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(os.Stderr, "\n  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress with a justified comment on or above the flagged line:\n"+
		"  //lint:allow <rule> <why this site is exempt>\n")
}
