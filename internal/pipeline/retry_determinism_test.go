package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"commchar/internal/resilience"
)

// TestRetryScheduleDeterministicAcrossParallelism: with every spec
// failing transiently twice before succeeding, a -parallel=1 sweep and a
// -parallel=8 sweep must make exactly the same retry decisions (the
// jitter is seeded per spec key, not per goroutine) and produce
// identical artifacts. This is the determinism half of the retry
// machinery the distributed layer leans on.
func TestRetryScheduleDeterministicAcrossParallelism(t *testing.T) {
	specs := chaosSpecs("IS", "MG", "FFT", "CG", "LU", "Nbody")

	sweep := func(parallel int) ([]*Artifact, int64) {
		var mu sync.Mutex
		failures := map[string]int{}
		e := chaosEngine(t, Options{
			Parallel: parallel,
			Retry:    resilience.Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 50 * time.Microsecond, Multiplier: 2},
		}, nil)
		inner := e.runStages
		e.runStages = func(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
			mu.Lock()
			failures[spec.App]++
			n := failures[spec.App]
			mu.Unlock()
			if n <= 2 {
				return nil, resilience.MarkTransient(&flakyError{app: spec.App, attempt: n})
			}
			return inner(ctx, spec, track)
		}
		arts, err := e.RunAll(context.Background(), specs...)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return arts, e.Metrics().Retries.Load()
	}

	seqArts, seqRetries := sweep(1)
	parArts, parRetries := sweep(8)

	if wantRetries := int64(2 * len(specs)); seqRetries != wantRetries || parRetries != wantRetries {
		t.Fatalf("retries: sequential=%d parallel=%d, want %d both", seqRetries, parRetries, wantRetries)
	}
	for i := range specs {
		if !reflect.DeepEqual(seqArts[i].C, parArts[i].C) {
			t.Fatalf("spec %s: artifact differs between parallel=1 and parallel=8 under retries", specs[i].App)
		}
		if seqArts[i].Key != parArts[i].Key {
			t.Fatalf("spec %s: cache key differs across parallelism", specs[i].App)
		}
	}
}

// TestJitterSeedStableAcrossRuns: the per-spec jitter seed is a pure
// function of the cache key, so the same spec retries on the same
// schedule in every run of every process.
func TestJitterSeedStableAcrossRuns(t *testing.T) {
	for _, spec := range chaosSpecs("IS", "MG") {
		key, err := spec.Key("")
		if err != nil {
			t.Fatal(err)
		}
		a, b := jitterSeed(key), jitterSeed(key)
		if a != b {
			t.Fatalf("%s: jitterSeed not stable: %d vs %d", spec.App, a, b)
		}
		if a == 0 {
			t.Fatalf("%s: degenerate zero seed", spec.App)
		}
	}
	// Distinct keys give distinct schedules (with overwhelming probability
	// for these fixed inputs; pinned here so a regression to a constant
	// seed cannot hide).
	k1, _ := RunSpec{App: "IS", Procs: 4}.Key("")
	k2, _ := RunSpec{App: "MG", Procs: 4}.Key("")
	if jitterSeed(k1) == jitterSeed(k2) {
		t.Fatal("different specs share a jitter seed")
	}
}

// flakyError is a typed transient failure for the chaos stage stub.
type flakyError struct {
	app     string
	attempt int
}

func (e *flakyError) Error() string {
	return "synthetic transient failure " + e.app
}
