package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"commchar/internal/apps"
	"commchar/internal/dist"
	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/workload"
)

// sweep runs the full small-scale evaluation through an engine with the
// given worker-pool width and returns the rendered output.
func sweep(t *testing.T, parallel int) string {
	t.Helper()
	return sweepObserved(t, parallel, nil)
}

// sweepObserved is sweep with an optional observer attached to the
// engine, for asserting that tracing never changes results.
func sweepObserved(t *testing.T, parallel int, ob *obs.Observer) string {
	t.Helper()
	eng, err := pipeline.New(pipeline.Options{Parallel: parallel, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(context.Background(), apps.ScaleSmall, eng)
	var sb strings.Builder
	if err := RunSteps(context.Background(), &sb, r.Steps(8), false); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// sweepDistributed runs the full evaluation with every run executed
// remotely: a lease coordinator in front of two in-process workers —
// each with its own engine — wired over real HTTP. By the determinism
// invariant its output must be byte-identical to the local sweeps.
func sweepDistributed(t *testing.T) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := dist.NewCoordinator(dist.CoordinatorOptions{Lease: 30 * time.Second})
	coord.Start(ctx)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		weng, err := pipeline.New(pipeline.Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		w, err := dist.NewWorker(dist.WorkerOptions{Name: name, Runner: weng})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Poll(ctx, srv.URL); err != nil {
				t.Errorf("worker poll: %v", err)
			}
		}()
	}
	front, err := pipeline.New(pipeline.Options{Parallel: 4, Remote: coord})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(context.Background(), apps.ScaleSmall, front)
	var sb strings.Builder
	if err := RunSteps(context.Background(), &sb, r.Steps(8), false); err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	wg.Wait() // both workers observe StatusDone and detach cleanly
	return sb.String()
}

// sweepTopologyMatrix characterizes the same application on the default
// 2-D mesh, a 3-D torus, and a fat tree through one engine of the given
// worker-pool width, rendering the per-fabric network metrics in spec
// order.
func sweepTopologyMatrix(t *testing.T, parallel int) string {
	t.Helper()
	eng, err := pipeline.New(pipeline.Options{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var specs []pipeline.RunSpec
	for _, topo := range []string{"", "torus3d", "fattree"} {
		specs = append(specs, pipeline.RunSpec{App: "IS", Procs: 16, Scale: apps.ScaleSmall, Topology: topo})
	}
	arts, err := eng.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i, a := range arts {
		c := a.C
		m := workload.MeasureLog(c.Log, c.Elapsed, c.MeanUtilization)
		fmt.Fprintf(&sb, "topo=%q messages=%d hops=%.2f latency=%.0f blocked=%.0f elapsed=%d\n",
			specs[i].Topology, m.Messages, m.MeanHops, m.MeanLatencyNS, m.MeanBlockedNS, c.Elapsed)
	}
	return sb.String()
}

// TestParallelSweepIsDeterministic is the pipeline's central guarantee:
// the full evaluation, executed across an 8-wide worker pool, is
// byte-for-byte identical to the sequential run. It also keeps the
// content assertions of the original sweep test.
func TestParallelSweepIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep, twice")
	}
	seq := sweep(t, 1)
	par := sweep(t, 8)
	if seq != par {
		i := 0
		for i < len(seq) && i < len(par) && seq[i] == par[i] {
			i++
		}
		lo := max(0, i-120)
		t.Fatalf("parallel sweep diverges from sequential at byte %d:\nsequential: %q\nparallel:   %q",
			i, seq[lo:min(len(seq), i+120)], par[lo:min(len(par), i+120)])
	}

	// Tracing must be invisible to results: a fully observed parallel
	// sweep — spans, metrics, progress, Chrome trace written to disk —
	// is byte-identical to the untraced sequential baseline.
	ob := obs.NewObserver(obs.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond))
	ob.TracePath = filepath.Join(t.TempDir(), "sweep.trace.json")
	traced := sweepObserved(t, 8, ob)
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	if traced != seq {
		t.Fatal("traced sweep output differs from untraced sequential baseline")
	}
	if len(ob.Tracer.Events()) == 0 {
		t.Fatal("traced sweep recorded no trace events")
	}

	// Distribution must be invisible too: the same sweep partitioned
	// across a two-worker lease fleet over HTTP is byte-identical to
	// the sequential local run.
	distributed := sweepDistributed(t)
	if distributed != seq {
		i := 0
		for i < len(seq) && i < len(distributed) && seq[i] == distributed[i] {
			i++
		}
		lo := max(0, i-120)
		t.Fatalf("distributed sweep diverges from sequential at byte %d:\nsequential:  %q\ndistributed: %q",
			i, seq[lo:min(len(seq), i+120)], distributed[lo:min(len(distributed), i+120)])
	}
	if raw, err := os.ReadFile(ob.TracePath); err != nil || !json.Valid(raw) {
		t.Fatalf("Chrome trace at %s invalid: err=%v valid=%t", ob.TracePath, err, err == nil && json.Valid(raw))
	}

	// The invariant holds across fabrics too: a parallel sweep over the
	// mesh / 3-D torus / fat-tree topology matrix renders byte-identically
	// to its sequential run, and the fabrics genuinely differ.
	topoSeq := sweepTopologyMatrix(t, 1)
	if topoPar := sweepTopologyMatrix(t, 8); topoPar != topoSeq {
		t.Fatalf("topology-matrix sweep diverges from sequential:\nsequential: %q\nparallel:   %q",
			topoSeq, topoPar)
	}
	topoLines := strings.Split(strings.TrimSpace(topoSeq), "\n")
	if len(topoLines) != 3 {
		t.Fatalf("topology matrix rendered %d rows, want 3:\n%s", len(topoLines), topoSeq)
	}
	for i, a := range topoLines {
		for _, b := range topoLines[i+1:] {
			if a[strings.Index(a, " "):] == b[strings.Index(b, " "):] {
				t.Fatalf("two fabrics produced identical metrics:\n%s", topoSeq)
			}
		}
	}
	for _, want := range []string{
		"Table 1: application suite",
		"Table 2: message inter-arrival time fits, shared memory",
		"Table 3: message inter-arrival time fits, message passing",
		"Table 4: message volume characteristics",
		"inter-arrival CDF, measured vs",
		"Message Distribution for p0",
		"synthetic-traffic validation",
		"Table 5: locality and burstiness",
		"Message generation rate over time",
		"latency vs offered load",
		"analytic M/G/1 model vs simulation",
		"Ablation: mesh contention",
		"Ablation: virtual channels",
		"Ablation: cache size",
		"Ablation: barrier algorithm",
		"Ablation: topology",
		"Table 6: per-phase inter-arrival fits",
		"Table 7: execution-time profiles",
		"Ablation: coherence protocol",
		"Ablation: routing algorithm",
		"1D-FFT", "IS", "Cholesky", "Nbody", "Maxflow", "3D-FFT", "MG",
	} {
		if !strings.Contains(seq, want) {
			t.Fatalf("experiment output missing %q", want)
		}
	}
}

// TestParallelPoolSmoke drives real concurrent runs through a shared
// engine — the path the race detector needs to see (the heavyweight
// determinism test above is skipped under -short, this one is not).
func TestParallelPoolSmoke(t *testing.T) {
	eng, err := pipeline.New(pipeline.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(context.Background(), apps.ScaleSmall, eng)
	var sb strings.Builder
	if err := r.Table1(&sb, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1: application suite") {
		t.Fatalf("output:\n%s", sb.String())
	}
	if eng.Metrics().Runs.Load() != 7 {
		t.Fatalf("runs executed = %d, want 7", eng.Metrics().Runs.Load())
	}
}

// defaultEngine is an engine with default options: GOMAXPROCS workers,
// no disk cache.
func defaultEngine(t *testing.T) *pipeline.Engine {
	t.Helper()
	eng, err := pipeline.New(pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(context.Background(), apps.ScaleSmall, defaultEngine(t))
	a, err := r.characterize("Nbody", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.characterize("Nbody", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("characterization not cached")
	}
	c, err := r.characterize("Nbody", 8)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different processor counts share a cache entry")
	}
}

// TestRunnersAtDifferentScalesDoNotCollide is the regression test for the
// old Runner's cache key, which omitted the scale: two runners sharing one
// engine at different scales must get different runs.
func TestRunnersAtDifferentScalesDoNotCollide(t *testing.T) {
	eng := defaultEngine(t)
	small := NewRunner(context.Background(), apps.ScaleSmall, eng)
	full := NewRunner(context.Background(), apps.ScaleFull, eng)
	a, err := small.characterize("Nbody", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.characterize("Nbody", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("small- and full-scale runs share a cache entry")
	}
	if a.Messages == b.Messages {
		t.Fatalf("scales indistinguishable: both ran %d messages", a.Messages)
	}
	if eng.Metrics().Runs.Load() != 2 {
		t.Fatalf("runs executed = %d, want 2", eng.Metrics().Runs.Load())
	}
}

// TestRunnersWithDistinctConfigsDoNotCollide pins the same property for
// machine-configuration overrides (the old key also omitted the barrier).
func TestRunnersWithDistinctConfigsDoNotCollide(t *testing.T) {
	eng := defaultEngine(t)
	r := NewRunner(context.Background(), apps.ScaleSmall, eng)
	var sb strings.Builder
	if err := r.AblationBarrier(&sb, 4); err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().Runs.Load() != 2 {
		t.Fatalf("barrier variants collided: %d runs executed, want 2", eng.Metrics().Runs.Load())
	}
}

func TestAblationVirtualChannelsImproves(t *testing.T) {
	r := NewRunner(context.Background(), apps.ScaleSmall, defaultEngine(t))
	var sb strings.Builder
	if err := r.AblationVirtualChannels(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "VCs") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// TestInterruptedSweepResumesByteIdentical is the resilience acceptance
// test: a sweep interrupted partway through (context cancelled once the
// disk cache holds some finished runs), then rerun on a fresh engine over
// the same cache, repeats zero simulations and emits byte-identical output
// to an uninterrupted run.
func TestInterruptedSweepResumesByteIdentical(t *testing.T) {
	cacheDir := t.TempDir()
	const procs, total = 4, 7 // Table1 characterizes all 7 suite apps
	cached := func() int {
		entries, _ := filepath.Glob(filepath.Join(cacheDir, "*", "*.zip"))
		return len(entries)
	}

	// Phase 1: start the sweep, cancel once two runs are cached.
	eng1, err := pipeline.New(pipeline.Options{Parallel: 1, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for cached() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	var interrupted strings.Builder
	err = NewRunner(ctx, apps.ScaleSmall, eng1).Table1(&interrupted, procs)
	interruptedAt := cached()
	if interruptedAt >= total {
		// The sweep outran the interrupt; the resume below still must
		// serve everything from cache, but the test loses its point.
		t.Logf("interrupt landed after completion (%d cached)", interruptedAt)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled in the chain", err)
	}

	// Phase 2: resume. Only the uncached specs may simulate.
	eng2, err := pipeline.New(pipeline.Options{Parallel: 1, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := NewRunner(context.Background(), apps.ScaleSmall, eng2).Table1(&resumed, procs); err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if got := eng2.Metrics().Runs.Load(); got != int64(total-interruptedAt) {
		t.Fatalf("resume repeated simulations: %d runs executed, want %d", got, total-interruptedAt)
	}
	if got := eng2.Metrics().DiskHits.Load(); got != int64(interruptedAt) {
		t.Fatalf("DiskHits = %d, want %d", got, interruptedAt)
	}

	// Phase 3: the resumed output is byte-identical to an uninterrupted run.
	var reference strings.Builder
	if err := NewRunner(context.Background(), apps.ScaleSmall, defaultEngine(t)).Table1(&reference, procs); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != reference.String() {
		t.Fatalf("resumed output differs from the uninterrupted run:\nresumed:\n%s\nreference:\n%s",
			resumed.String(), reference.String())
	}
}
