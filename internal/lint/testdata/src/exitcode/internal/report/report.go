// Package report exercises the exitcode analyzer inside a boundary
// package: failures here must surface as classified error values, never
// as process exits or panics.
package report

import (
	"log"
	"os"
)

// Bad: an untyped exit skips deferred cleanup.
func bail() {
	os.Exit(3) // want "exitcode: os.Exit bypasses the typed exit-code contract"
}

// Bad: the log.Fatal family exits with status 1 regardless of cause.
func fatal(msg string) {
	log.Fatalf("report: %s", msg) // want "exitcode: log.Fatalf exits with an untyped status"
}

// Bad: same for the unformatted variant.
func fatalPlain() {
	log.Fatal("report failed") // want "exitcode: log.Fatal exits with an untyped status"
}

// Bad: a panic crossing the pipeline boundary defeats resilience.Classify.
func mustPositive(n int) int {
	if n <= 0 {
		panic("n must be positive") // want "exitcode: panic crosses the pipeline error boundary"
	}
	return n
}

// Good: returning an error keeps the exit-code contract intact.
func checked(n int) (int, error) {
	if n <= 0 {
		return 0, errNonPositive
	}
	return n, nil
}

type reportError string

func (e reportError) Error() string { return string(e) }

var errNonPositive = reportError("report: n must be positive")
