package main

import (
	"bytes"
	"context"
	"testing"

	"commchar/internal/cli"
)

// TestTooFewProcessorsIsUsage: a processor count below 2 in -procs, or
// one past the fabric's endpoint limit in any position, is rejected
// before any spec runs, so the sweep exits 2, not 3 with the other
// counts' reports.
func TestTooFewProcessorsIsUsage(t *testing.T) {
	for _, procs := range []string{"1,4", "4,2000000"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-coordinator", "-local", "-apps", "IS", "-procs", procs, "-scale", "small"}, &stdout, &stderr)
		if code := cli.ExitCode(err); code != cli.ExitUsage {
			t.Fatalf("-procs %s: exit code %d, want %d (%v)", procs, code, cli.ExitUsage, err)
		}
		if stdout.Len() != 0 {
			t.Fatalf("-procs %s: a rejected sweep printed reports:\n%s", procs, stdout.String())
		}
	}
}
