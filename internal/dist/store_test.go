package dist

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"commchar/internal/apps"
	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/resilience"
)

// storeSpecs are real, small specs: one dynamic-strategy run and one
// static run, whose blob also carries the trace member.
func storeSpecs() []pipeline.RunSpec {
	return []pipeline.RunSpec{
		{App: "IS", Procs: 4, Scale: apps.ScaleSmall},
		{App: "3D-FFT", Procs: 4, Scale: apps.ScaleSmall},
	}
}

// localBlobs runs specs in process, the -local reference, and returns
// each artifact's serialization.
func localBlobs(t *testing.T, specs []pipeline.RunSpec) [][]byte {
	t.Helper()
	eng, err := pipeline.New(pipeline.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := eng.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, len(arts))
	for i, a := range arts {
		blobs[i] = marshalArtifact(t, a)
	}
	return blobs
}

// storeSweep runs specs through an engine over cacheDir whose executor
// is a fresh coordinator: the arrangement sweepd -coordinator -cache-dir
// sets up. With withWorker a worker running the real pipeline joins it;
// without one, any spec that needs a lease fails the sweep at the
// deadline instead of hanging the test.
func storeSweep(t *testing.T, cacheDir string, withWorker bool, specs []pipeline.RunSpec) (*Coordinator, *pipeline.Engine, *obs.Observer, [][]byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ob := obs.NewObserver(nil)
	coord, url, shutdown, err := ServeCoordinator(ctx, CoordinatorOptions{Lease: 5 * time.Second, Obs: ob},
		Fleet{Drain: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if withWorker {
		workerEngine, err := pipeline.New(pipeline.Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(WorkerOptions{
			Name: "w1", Runner: workerEngine, PollInterval: 5 * time.Millisecond,
			Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Poll(ctx, url)
	}
	front, err := pipeline.New(pipeline.Options{Parallel: len(specs), CacheDir: cacheDir, Remote: coord, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := front.RunAll(ctx, specs...)
	if err != nil {
		t.Fatal(err)
	}
	shutdown()
	blobs := make([][]byte, len(arts))
	for i, a := range arts {
		blobs[i] = marshalArtifact(t, a)
	}
	return coord, front, ob, blobs
}

// entryPath is where a cache over dir files the entry for key.
func entryPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+".zip")
}

// countEvents counts the flight-recorder events named name.
func countEvents(ob *obs.Observer, name string) int {
	n := 0
	for _, ev := range ob.Events.Recent() {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestCoordinatorServesStoreHitWithoutLease: the coordinator's cache is
// the fleet's shared store. What one sweep's worker ran lands there, and
// a second coordinator over the same directory, with no worker at all,
// serves every spec from it: it grants no lease and enqueues nothing,
// and its artifacts are byte-identical to the local run's.
func TestCoordinatorServesStoreHitWithoutLease(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	specs := storeSpecs()
	want := localBlobs(t, specs)
	dir := t.TempDir()

	cold, _, _, _ := storeSweep(t, dir, true, specs)
	if got := cold.Metrics().Completions.Load(); got != int64(len(specs)) {
		t.Fatalf("cold sweep completed %d leases, want %d", got, len(specs))
	}
	for i, spec := range specs {
		key, err := spec.Key(pipeline.DefaultSalt)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := os.ReadFile(entryPath(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, want[i]) {
			t.Fatalf("%s: stored entry differs from the local artifact", spec.Label())
		}
	}

	warm, front, ob, got := storeSweep(t, dir, false, specs)
	m := warm.Metrics()
	if n := m.LeasesGranted.Load(); n != 0 {
		t.Fatalf("warm sweep granted %d leases, want 0", n)
	}
	if n := m.Enqueued.Load(); n != 0 {
		t.Fatalf("warm sweep enqueued %d specs, want 0", n)
	}
	if n := front.Metrics().DiskHits.Load(); n != int64(len(specs)) {
		t.Fatalf("disk hits = %d, want %d", n, len(specs))
	}
	if n := countEvents(ob, "cache.hit"); n != len(specs) {
		t.Fatalf("%d cache.hit events, want %d", n, len(specs))
	}
	for i := range specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: cache hit differs from the local artifact", specs[i].Label())
		}
	}
	if err := warm.DegradedError(); err != nil {
		t.Fatalf("clean cache hits report %v", err)
	}
}

// TestCorruptCacheEntryIsLeasedAndHealed: a truncated entry and one that
// is a directory, which no read can return, are each counted, leased and
// run instead of served. The artifacts stay byte-identical to the local
// run's, the store after each completion heals the entry, and the sweep
// is not degraded: a damaged entry is a healed miss, in a fleet as in
// every tool.
func TestCorruptCacheEntryIsLeasedAndHealed(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	specs := storeSpecs()
	want := localBlobs(t, specs)
	dir := t.TempDir()
	keys := make([]string, len(specs))
	for i, spec := range specs {
		key, err := spec.Key(pipeline.DefaultSalt)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		if err := os.MkdirAll(filepath.Dir(entryPath(dir, key)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(entryPath(dir, keys[0]), want[0][:len(want[0])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(entryPath(dir, keys[1]), 0o755); err != nil {
		t.Fatal(err)
	}

	coord, front, ob, got := storeSweep(t, dir, true, specs)
	for i := range specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: leased artifact differs from the local artifact", specs[i].Label())
		}
	}
	fm := front.Metrics()
	if fm.DiskCorrupt.Load() != 2 || fm.DiskHits.Load() != 0 || coord.Metrics().LeasesGranted.Load() != 2 {
		t.Fatalf("corrupt=%d disk hits=%d leases=%d, want 2/0/2",
			fm.DiskCorrupt.Load(), fm.DiskHits.Load(), coord.Metrics().LeasesGranted.Load())
	}
	if n := countEvents(ob, "cache.corrupt"); n != 2 {
		t.Fatalf("%d cache.corrupt events, want 2", n)
	}
	for i, key := range keys {
		healed, err := os.ReadFile(entryPath(dir, key))
		if err != nil || !bytes.Equal(healed, want[i]) {
			t.Fatalf("%s: damaged entry not healed by the completion (err %v)", specs[i].Label(), err)
		}
	}
	if err := coord.DegradedError(); err != nil {
		t.Fatalf("a healed cache entry degraded the sweep: %v", err)
	}
}

// TestWorkerAttachesStoreAndCoordinatorFeedsIt: end to end with a
// polling worker. The worker attaches no store of its own, yet its
// accepted completion lands in the coordinator's cache, and a repeat of
// the spec by a later engine over that cache is served from it without
// reaching the coordinator or the worker again.
func TestWorkerAttachesStoreAndCoordinatorFeedsIt(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Lease: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	runner := &fakeRunner{fn: func(ctx context.Context, spec pipeline.RunSpec) (*pipeline.Artifact, error) {
		return testArtifact(spec.App), nil
	}}
	w, err := NewWorker(WorkerOptions{
		Name: "w1", Runner: runner, PollInterval: 5 * time.Millisecond,
		Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Poll(ctx, srv.URL)

	dir := t.TempDir()
	for _, want := range []pipeline.Source{pipeline.SourceRemote, pipeline.SourceDisk} {
		front, err := pipeline.New(pipeline.Options{Parallel: 1, CacheDir: dir, Remote: coord})
		if err != nil {
			t.Fatal(err)
		}
		art, err := front.RunContext(ctx, testSpec("IS"))
		if err != nil {
			t.Fatal(err)
		}
		if art.Source != want || art.C.Name != "IS" {
			t.Fatalf("source=%q name=%q, want %q/IS", art.Source, art.C.Name, want)
		}
		if want == pipeline.SourceRemote {
			stored, err := os.ReadFile(entryPath(dir, art.Key))
			if err != nil || !bytes.Equal(stored, marshalArtifact(t, art)) {
				t.Fatalf("the completion did not land in the cache byte for byte (err %v)", err)
			}
		}
	}
	coord.Finish()
	runner.mu.Lock()
	runs := runner.runs["IS"]
	runner.mu.Unlock()
	m := coord.Metrics()
	if runs != 1 || m.LeasesGranted.Load() != 1 || m.Enqueued.Load() != 1 {
		t.Fatalf("runs=%d leases=%d enqueued=%d, want 1/1/1", runs, m.LeasesGranted.Load(), m.Enqueued.Load())
	}
	if coord.Degraded() {
		t.Fatal("healthy run marked degraded")
	}
}
