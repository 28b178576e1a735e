package main

import (
	"bytes"
	"context"
	"testing"

	"commchar/internal/cli"
)

// TestTooFewProcessorsIsUsage: a processor count below 2 in -procs is
// rejected before any spec runs, so the sweep exits 2, not 3 with the
// other counts' reports.
func TestTooFewProcessorsIsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-coordinator", "-local", "-apps", "IS", "-procs", "1,4", "-scale", "small"}, &stdout, &stderr)
	if code := cli.ExitCode(err); code != cli.ExitUsage {
		t.Fatalf("exit code %d, want %d (%v)", code, cli.ExitUsage, err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("a rejected sweep printed reports:\n%s", stdout.String())
	}
}
