package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestZeroLengthLogIsAnError runs synthgen on a delivery log where every
// 7th row has length 0: the characterization names the first such
// delivery and the run fails cleanly, instead of the regenerated traffic
// injecting a zero-length message and panicking.
func TestZeroLengthLogIsAnError(t *testing.T) {
	var log strings.Builder
	log.WriteString("id,src,dst,bytes,inject_ns,end_ns,latency_ns,blocked_ns,hops,retries,faults,status\n")
	for i := range 400 {
		length := 64 + 8*(i%5)
		if i%7 == 6 {
			length = 0
		}
		inject := 2000 * i
		fmt.Fprintf(&log, "%d,%d,%d,%d,%d,%d,500,0,1,0,0,0\n", i+1, i%4, (i+1)%4, length, inject, inject+500)
	}
	path := filepath.Join(t.TempDir(), "zero.csv")
	if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-log", path, "-procs", "4", "-elapsed-ms", "1"}, &stdout, &stderr)
	if err == nil || err.Error() != "core: delivery 7 has length 0" {
		t.Fatalf("error %v, want the zero-length delivery named", err)
	}
	if out := stdout.String() + stderr.String(); strings.Contains(out, "internal error") {
		t.Fatalf("run reported an internal error:\n%s", out)
	}
}
