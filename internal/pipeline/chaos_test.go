package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commchar/internal/apps"
	"commchar/internal/core"
	"commchar/internal/resilience"
	"commchar/internal/sim"
	"commchar/internal/spasm"
)

// chaosEngine returns an engine whose stage behavior is programmable per
// app name, defaulting to the synthetic acquisition. It is the harness of
// the chaos suite: panics, hangs, and flaky failures are injected at the
// stage seam, exactly where a real simulator failure would surface.
func chaosEngine(t *testing.T, opts Options, behavior map[string]func(ctx context.Context, spec RunSpec) (*stageResult, error)) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.runStages = func(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
		if fn := behavior[spec.App]; fn != nil {
			return fn(ctx, spec)
		}
		return &stageResult{raw: syntheticRaw(spec.Procs)}, nil
	}
	return e
}

func chaosSpecs(names ...string) []RunSpec {
	specs := make([]RunSpec, len(names))
	for i, n := range names {
		specs[i] = RunSpec{App: n, Procs: 4, Scale: apps.ScaleSmall}
	}
	return specs
}

// TestChaosWorkerPanicLosesOnlyThatSpec: a panicking worker under the
// continue policy costs exactly its spec; the sweep completes, the loss is
// a typed *SpecError inside a *DegradedError, and the survivors are
// deterministic across repeated sweeps.
func TestChaosWorkerPanicLosesOnlyThatSpec(t *testing.T) {
	sweepOnce := func() ([]*Artifact, error, *Metrics) {
		e := chaosEngine(t, Options{Parallel: 4},
			map[string]func(ctx context.Context, spec RunSpec) (*stageResult, error){
				"Cholesky": func(ctx context.Context, spec RunSpec) (*stageResult, error) {
					panic("chaos: worker crash")
				},
			})
		arts, err := e.RunAll(context.Background(), chaosSpecs("IS", "Cholesky", "Nbody", "Maxflow")...)
		return arts, err, e.Metrics()
	}

	arts, err, m := sweepOnce()
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DegradedError, got %v", err)
	}
	if de.Failed != 1 || de.Total != 4 {
		t.Fatalf("degraded %d/%d, want 1/4", de.Failed, de.Total)
	}
	var se *SpecError
	if !errors.As(err, &se) || se.Spec.App != "Cholesky" {
		t.Fatalf("lost spec not reported as *SpecError: %v", err)
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not preserved through the error chain: %v", err)
	}
	if m.Panics.Load() != 1 || m.SpecFailures.Load() != 1 {
		t.Fatalf("metrics: panics=%d specFailures=%d", m.Panics.Load(), m.SpecFailures.Load())
	}
	for i, name := range []string{"IS", "", "Nbody", "Maxflow"} {
		if name == "" {
			if arts[i] != nil {
				t.Fatal("failed spec produced an artifact")
			}
			continue
		}
		if arts[i] == nil || arts[i].Spec.App != name {
			t.Fatalf("survivor %s lost its artifact", name)
		}
	}

	// Chaos must not perturb the survivors: a second sweep produces
	// identical characterizations.
	arts2, _, _ := sweepOnce()
	for _, i := range []int{0, 2, 3} {
		if !reflect.DeepEqual(arts[i].C, arts2[i].C) {
			t.Fatalf("survivor %d not deterministic under chaos", i)
		}
	}
}

// TestChaosProcessPanicLosesOnlyThatSpec: a panic inside one simulated
// processor of a real execution-driven run fails that spec with a
// *resilience.PanicError naming the process, and the sweep's other specs
// finish.
func TestChaosProcessPanicLosesOnlyThatSpec(t *testing.T) {
	e := chaosEngine(t, Options{Parallel: 2},
		map[string]func(ctx context.Context, spec RunSpec) (*stageResult, error){
			"Maxflow": func(ctx context.Context, spec RunSpec) (*stageResult, error) {
				m := spasm.NewDefault(spec.Procs)
				raw, err := core.AcquireSharedMemoryOnContext(ctx, m, func(m *spasm.Machine) error {
					_, err := m.Run(func(env *spasm.Env) {
						env.Compute(100)
						if env.ID() == 2 {
							panic("chaos: processor crash")
						}
						env.Compute(100)
					})
					return err
				})
				if err != nil {
					return nil, err
				}
				return &stageResult{raw: raw}, nil
			},
		})
	arts, err := e.RunAll(context.Background(), chaosSpecs("IS", "Maxflow", "Nbody")...)
	var de *DegradedError
	if !errors.As(err, &de) || de.Failed != 1 || de.Total != 3 {
		t.Fatalf("want one of three specs lost, got %v", err)
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("process panic not reported as *resilience.PanicError: %v", err)
	}
	if pp, ok := pe.Value.(*sim.ProcessPanic); !ok || pp.Process != "proc2" || pp.Value != "chaos: processor crash" {
		t.Fatalf("panic value = %#v, want proc2's panic", pe.Value)
	}
	if arts[1] != nil {
		t.Fatal("failed spec produced an artifact")
	}
	for _, i := range []int{0, 2} {
		if arts[i] == nil {
			t.Fatalf("spec %d did not finish", i)
		}
	}
	if e.Metrics().Panics.Load() != 1 {
		t.Fatalf("panics = %d, want 1", e.Metrics().Panics.Load())
	}
}

// TestChaosSlowStageHitsDeadline: a hung stage is cut off by the per-spec
// deadline; the failure unwraps to context.DeadlineExceeded and the other
// specs complete untouched.
func TestChaosSlowStageHitsDeadline(t *testing.T) {
	e := chaosEngine(t, Options{Parallel: 4, SpecTimeout: 50 * time.Millisecond},
		map[string]func(ctx context.Context, spec RunSpec) (*stageResult, error){
			"Nbody": func(ctx context.Context, spec RunSpec) (*stageResult, error) {
				<-ctx.Done() // a hung simulation: only the deadline frees it
				return nil, ctx.Err()
			},
		})
	specs := chaosSpecs("IS", "Nbody")
	arts, err := e.RunAll(context.Background(), specs...)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DegradedError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline not visible in the chain: %v", err)
	}
	if arts[0] == nil || arts[1] != nil {
		t.Fatalf("artifact split wrong: %v %v", arts[0], arts[1])
	}
	if e.Metrics().Cancelled.Load() == 0 {
		t.Fatal("deadline expiry not counted as cancelled")
	}
	// The sweep itself was not externally cancelled, so the tool-level
	// classification is "degraded", not "interrupted".
	if errors.Is(err, context.Canceled) {
		t.Fatal("deadline expiry must not read as context.Canceled")
	}
}

// TestEngineRunsFailedSpecOnce: a run is a pure function of its spec,
// so the engine never reruns a failed one — not even a failure marked
// transient. The stage is called once and the spec is lost as a
// *SpecError; the sibling is unaffected.
func TestEngineRunsFailedSpecOnce(t *testing.T) {
	var calls atomic.Int64
	e := chaosEngine(t, Options{Parallel: 2},
		map[string]func(ctx context.Context, spec RunSpec) (*stageResult, error){
			"IS": func(ctx context.Context, spec RunSpec) (*stageResult, error) {
				calls.Add(1)
				return nil, resilience.MarkTransient(errors.New("chaos: flaky"))
			},
		})
	arts, err := e.RunAll(context.Background(), chaosSpecs("IS", "Nbody")...)
	var se *SpecError
	if !errors.As(err, &se) || se.Spec.App != "IS" {
		t.Fatalf("err = %v, want a *SpecError for IS", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("failing stage called %d times, want 1", n)
	}
	if arts[0] != nil || arts[1] == nil {
		t.Fatalf("artifacts = %v, want only Nbody's", arts)
	}
}

// TestChaosFailFastCancelsSiblings: under -on-error=fail the first failure
// cancels the rest of the sweep, and the report names the real failure —
// not the collateral cancellations, and not context.Canceled.
func TestChaosFailFastCancelsSiblings(t *testing.T) {
	started := make(chan struct{})
	e := chaosEngine(t, Options{Parallel: 4, OnError: OnErrorFail},
		map[string]func(ctx context.Context, spec RunSpec) (*stageResult, error){
			"IS": func(ctx context.Context, spec RunSpec) (*stageResult, error) {
				<-started // wait until the slow sibling is running
				return nil, errors.New("chaos: hard failure")
			},
			"Nbody": func(ctx context.Context, spec RunSpec) (*stageResult, error) {
				close(started)
				<-ctx.Done() // runs until fail-fast cancels it
				return nil, ctx.Err()
			},
		})
	_, err := e.RunAll(context.Background(), chaosSpecs("IS", "Nbody")...)
	if err == nil {
		t.Fatal("fail-fast sweep reported success")
	}
	if !strings.Contains(err.Error(), "hard failure") {
		t.Fatalf("real failure missing from report: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("collateral cancellation leaked into the report: %v", err)
	}
	var de *DegradedError
	if errors.As(err, &de) {
		t.Fatal("fail-fast must not report a degraded success")
	}
}

// TestChaosCacheCorruptionMidSweep: corrupting a cache entry between
// sweeps forces exactly that spec to re-run; the sweep still completes
// and heals the entry.
func TestChaosCacheCorruptionMidSweep(t *testing.T) {
	dir := t.TempDir()
	e1 := chaosEngine(t, Options{Parallel: 2, CacheDir: dir}, nil)
	specs := chaosSpecs("IS", "Nbody", "Maxflow")
	arts, err := e1.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos: tear the middle spec's stored entry a third of the way in.
	entry := filepath.Join(dir, arts[1].Key[:2], arts[1].Key+".zip")
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := chaosEngine(t, Options{Parallel: 2, CacheDir: dir}, nil)
	arts2, err := e2.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatalf("sweep over corrupt cache failed: %v", err)
	}
	if got := e2.Metrics().Runs.Load(); got != 1 {
		t.Fatalf("corruption forced %d re-runs, want 1", got)
	}
	if got := e2.Metrics().DiskHits.Load(); got != 2 {
		t.Fatalf("DiskHits = %d, want 2", got)
	}
	for i := range specs {
		if !reflect.DeepEqual(arts[i].C, arts2[i].C) {
			t.Fatalf("spec %d differs after corruption heal", i)
		}
	}
}

// TestChaosInterruptedSweepResumesWithZeroReruns is the resume acceptance
// test at the engine level: a sweep cancelled partway through and rerun on
// a fresh engine over the same disk cache re-executes only the specs that
// had not finished and reproduces identical artifacts.
func TestChaosInterruptedSweepResumesWithZeroReruns(t *testing.T) {
	dir := t.TempDir()
	names := []string{"IS", "Nbody", "Cholesky", "Maxflow", "1D-FFT", "MG"}

	// Slow specs take ~200ms each (polling ctx like a real simulator's
	// cycle loop), so the single-worker sweep is mid-flight long enough
	// for the interrupt to land, whatever order the pool picks.
	slow := func(ctx context.Context, spec RunSpec) (*stageResult, error) {
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			time.Sleep(5 * time.Millisecond)
		}
		return &stageResult{raw: syntheticRaw(spec.Procs)}, nil
	}
	behavior := map[string]func(ctx context.Context, spec RunSpec) (*stageResult, error){}
	for _, n := range names[2:] {
		behavior[n] = slow
	}
	e1 := chaosEngine(t, Options{Parallel: 1, CacheDir: dir}, behavior)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// "SIGINT" once the first two specs are in the cache.
		for cacheEntries(dir) < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err := e1.RunAll(ctx, chaosSpecs(names...)...)
	if err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error is not context.Canceled: %v", err)
	}
	doneAtInterrupt := cacheEntries(dir)
	if doneAtInterrupt >= len(names) {
		t.Fatalf("interrupt landed too late: %d specs already cached", doneAtInterrupt)
	}

	// Resume: a fresh engine over the same cache.
	e2 := chaosEngine(t, Options{Parallel: 1, CacheDir: dir}, nil)
	arts, err := e2.RunAll(context.Background(), chaosSpecs(names...)...)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}

	if got := e2.Metrics().DiskHits.Load(); got != int64(doneAtInterrupt) {
		t.Fatalf("DiskHits = %d, want %d", got, doneAtInterrupt)
	}
	if got := e2.Metrics().Runs.Load(); got != int64(len(names)-doneAtInterrupt) {
		t.Fatalf("resumed sweep executed %d runs, want %d (zero repeats)",
			got, len(names)-doneAtInterrupt)
	}
	for i, a := range arts {
		if a == nil {
			t.Fatalf("spec %d missing after resume", i)
		}
	}

	// The resumed sweep's artifacts match an uninterrupted reference run.
	ref := chaosEngine(t, Options{Parallel: 1}, nil)
	refArts, err := ref.RunAll(context.Background(), chaosSpecs(names...)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arts {
		if !reflect.DeepEqual(arts[i].C, refArts[i].C) {
			t.Fatalf("spec %d differs from the uninterrupted run", i)
		}
	}
}

// cacheEntries counts the finished entries in a disk cache directory.
func cacheEntries(dir string) int {
	entries, _ := filepath.Glob(filepath.Join(dir, "*", "*.zip"))
	return len(entries)
}

// TestDiskCacheConcurrentSameKeyStores is the cache-hardening check: two
// goroutines storing the same key must both report success and leave a
// readable entry behind.
func TestDiskCacheConcurrentSameKeyStores(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := chaosEngine(t, Options{Parallel: 1}, nil)
	spec := RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}
	art, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 10; round++ {
		key := art.Key
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = d.store(key, art.encode)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: writer %d failed: %v", round, i, err)
			}
		}
		if got, err := d.load(key, spec); got == nil || err != nil {
			t.Fatalf("round %d: entry unreadable after concurrent stores (err %v)", round, err)
		}
		// Reset for the next round so both the fresh-publish and the
		// replace-existing rename keep being exercised.
		if err := os.RemoveAll(d.path(key)); err != nil {
			t.Fatal(err)
		}
	}
}
