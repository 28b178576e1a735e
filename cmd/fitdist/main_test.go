package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commchar/internal/cli"
)

// TestPositionalArgumentIsUsage checks that a sample file named without
// -in is refused with a usage error (exit 2) instead of being ignored
// while fitdist fits stdin. Stdin is empty here, so a run that ignored
// the file would fail on too few samples instead.
func TestPositionalArgumentIsUsage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.txt")
	var samples strings.Builder
	for i := range 200 {
		samples.WriteString(strings.Repeat("1", 1+i%3) + "\n")
	}
	if err := os.WriteFile(path, []byte(samples.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	empty, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	stdin := os.Stdin
	os.Stdin = empty
	defer func() { os.Stdin = stdin }()

	for _, args := range [][]string{{path}, {"-overlay", path}} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), args, &stdout, &stderr)
		if got := cli.ExitCode(err); got != cli.ExitUsage || !strings.Contains(err.Error(), "unexpected argument") {
			t.Errorf("fitdist %v: exit %d (%v), want a usage error naming the argument", args, got, err)
		}
		if stdout.Len() > 0 {
			t.Errorf("fitdist %v printed %q before refusing", args, stdout.String())
		}
	}
}
