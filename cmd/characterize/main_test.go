package main

import (
	"bytes"
	"context"
	"testing"

	"commchar/internal/cli"
)

// TestTooFewProcessorsIsUsage: a processor count below 2 is a mistake on
// the command line, so it exits 2, as a bad -dims does.
func TestTooFewProcessorsIsUsage(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-app", "IS", "-procs", "1", "-scale", "small"}, &out, &out)
	if code := cli.ExitCode(err); code != cli.ExitUsage {
		t.Fatalf("exit code %d, want %d (%v)", code, cli.ExitUsage, err)
	}
}
