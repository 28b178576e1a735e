package apps

import (
	"context"
	"testing"

	"commchar/internal/core"
)

// TestRunsAreBitIdentical backs the README's reproducibility claim: the
// simulation kernel is deterministic, so two characterizations of the same
// workload produce identical network logs.
func TestRunsAreBitIdentical(t *testing.T) {
	w, err := ByName(ScaleSmall, "Cholesky") // the most nondeterminism-prone app (dynamic task queue)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *core.Characterization {
		c, err := w.Characterize(context.Background(), 8)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.Elapsed != b.Elapsed {
		t.Fatalf("runs differ: %d/%d msgs, %d/%d ns", a.Messages, b.Messages, a.Elapsed, b.Elapsed)
	}
	for i := range a.Log {
		if a.Log[i] != b.Log[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a.Log[i], b.Log[i])
		}
	}
}
