package dist

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"commchar/internal/apps"
	"commchar/internal/cli"
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

// storeSweep runs specs through an engine whose executor is a fresh
// coordinator over blobDir. With withWorker a worker running the real
// pipeline joins it; without one, any spec that needs a lease fails
// the sweep at the deadline instead of hanging the test.
func storeSweep(t *testing.T, blobDir string, withWorker bool, specs []pipeline.RunSpec) (*Coordinator, *obs.Observer, [][]byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ob := obs.NewObserver(nil)
	coord, url, shutdown, err := ServeCoordinator(ctx, CoordinatorOptions{Lease: 5 * time.Second, Obs: ob},
		Fleet{BlobDir: blobDir, Drain: 5 * time.Second})
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
	front, err := pipeline.New(pipeline.Options{Parallel: len(specs), Remote: coord})
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
	return coord, ob, blobs
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

// TestCoordinatorServesStoreHitWithoutLease: the blobs one sweep feeds
// into the store serve a second coordinator over the same directory,
// which has no worker at all. It grants no lease, counts one store fetch
// per spec, and its artifacts are byte-identical to the local run's.
func TestCoordinatorServesStoreHitWithoutLease(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	specs := storeSpecs()
	want := localBlobs(t, specs)
	dir := t.TempDir()

	cold, _, _ := storeSweep(t, dir, true, specs)
	if got := cold.Metrics().StoreBlobs.Load(); got != int64(len(specs)) {
		t.Fatalf("cold sweep fed %d blobs, want %d", got, len(specs))
	}
	for i, spec := range specs {
		key, err := spec.Key(pipeline.DefaultSalt)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := os.ReadFile(filepath.Join(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fed, want[i]) {
			t.Fatalf("%s: fed blob differs from the local artifact", spec.Label())
		}
	}

	warm, ob, got := storeSweep(t, dir, false, specs)
	m := warm.Metrics()
	if n := m.LeasesGranted.Load(); n != 0 {
		t.Fatalf("warm sweep granted %d leases, want 0", n)
	}
	if n := m.Enqueued.Load(); n != 0 {
		t.Fatalf("warm sweep enqueued %d specs, want 0", n)
	}
	if n := m.StoreFetches.Load(); n != int64(len(specs)) {
		t.Fatalf("store fetches = %d, want %d", n, len(specs))
	}
	if n := countEvents(ob, "dist.store.hit"); n != len(specs) {
		t.Fatalf("%d dist.store.hit events, want %d", n, len(specs))
	}
	for i := range specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: store hit differs from the local artifact", specs[i].Label())
		}
	}
	if err := warm.DegradedError(); err != nil {
		t.Fatalf("clean store hits report %v", err)
	}
}

// TestCorruptBlobFallsBackToLeaseAndDegrades: a truncated blob and one
// that cannot be read at all are each leased and run instead of served.
// The artifacts stay byte-identical to the local run's, the completion
// overwrites the truncated blob with the good bytes, and the sweep exits
// degraded.
func TestCorruptBlobFallsBackToLeaseAndDegrades(t *testing.T) {
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
	}
	// The first blob is cut short; the second is a directory, which no
	// read can return.
	if err := os.WriteFile(filepath.Join(dir, keys[0]), want[0][:len(want[0])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, keys[1]), 0o755); err != nil {
		t.Fatal(err)
	}

	coord, ob, got := storeSweep(t, dir, true, specs)
	for i := range specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: leased artifact differs from the local artifact", specs[i].Label())
		}
	}
	m := coord.Metrics()
	if m.StoreDegraded.Load() != 2 || m.StoreFetches.Load() != 0 || m.LeasesGranted.Load() != 2 {
		t.Fatalf("store degraded=%d fetches=%d leases=%d, want 2/0/2",
			m.StoreDegraded.Load(), m.StoreFetches.Load(), m.LeasesGranted.Load())
	}
	if n := countEvents(ob, "dist.store.degraded"); n != 2 {
		t.Fatalf("%d dist.store.degraded events, want 2", n)
	}
	healed, err := os.ReadFile(filepath.Join(dir, keys[0]))
	if err != nil || !bytes.Equal(healed, want[0]) {
		t.Fatalf("truncated blob not overwritten by the completion (err %v)", err)
	}
	if code := cli.ExitCode(coord.DegradedError()); code != 3 {
		t.Fatalf("exit code %d, want 3 (%v)", code, coord.DegradedError())
	}
}

// TestBlobStoreRejectsBadKeys: a key without the cache key's shape
// names no file, on either verb.
func TestBlobStoreRejectsBadKeys(t *testing.T) {
	dir := t.TempDir()
	bs, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../../etc/passwd", "short", testKey(0)[:63] + "G", ""} {
		if err := bs.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", key)
		}
		if _, ok, err := bs.Get(key); err == nil || ok {
			t.Fatalf("Get(%q): ok=%t err=%v, want an error", key, ok, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("bad keys wrote %d entries (err %v)", len(entries), err)
	}
}

// leaseOverHTTP polls /v1/lease as worker until a lease is granted, up
// to a bound, and returns it.
func leaseOverHTTP(t *testing.T, url, worker string) LeaseResponse {
	t.Helper()
	var lease LeaseResponse
	for deadline := time.Now().Add(5 * time.Second); ; {
		postJSON(t, url+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: worker}, &lease)
		if lease.Status == StatusLease {
			return lease
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leasedExecute runs Execute for spec and key on coord while a raw-HTTP
// worker leases the spec from srvURL and completes it with blob. It
// returns what Execute returned.
func leasedExecute(t *testing.T, coord *Coordinator, srvURL string, spec pipeline.RunSpec, key string, blob []byte) *pipeline.Artifact {
	t.Helper()
	var (
		wg      sync.WaitGroup
		art     *pipeline.Artifact
		execErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		art, execErr = coord.Execute(context.Background(), spec, key)
	}()
	lease := leaseOverHTTP(t, srvURL, "w1")
	var comp CompleteResponse
	postJSON(t, srvURL+"/v1/complete", CompleteRequest{
		V: ProtoVersion, Worker: "w1", ID: lease.ID, Key: key, Artifact: blob,
	}, &comp)
	wg.Wait()
	if execErr != nil {
		t.Fatal(execErr)
	}
	if comp.Duplicate {
		t.Fatal("the only completion was counted a duplicate")
	}
	return art
}

// hitExecute runs Execute for a spec the store must serve. A miss would
// block on a lease nobody takes, so the call is bounded.
func hitExecute(t *testing.T, coord *Coordinator, spec pipeline.RunSpec, key string) *pipeline.Artifact {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	art, err := coord.Execute(ctx, spec, key)
	if err != nil {
		t.Fatalf("store hit expected, Execute failed: %v", err)
	}
	return art
}

// TestBlobStoreRoundTripOverHTTP: a blob travels into the store over
// HTTP — the completion a worker posts to /v1/complete is fed into the
// blob directory byte for byte — and back out as a hit: a fresh
// coordinator over the same directory answers Execute with the same
// artifact and grants no lease. The miss on the empty store is healthy,
// not degraded.
func TestBlobStoreRoundTripOverHTTP(t *testing.T) {
	dir := t.TempDir()
	bs, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCoordinator(CoordinatorOptions{Lease: time.Second, Store: bs})
	srv := httptest.NewServer(cold.Handler())
	defer srv.Close()

	key := testKey(70)
	blob := marshalArtifact(t, testArtifact("IS"))
	if art := leasedExecute(t, cold, srv.URL, testSpec("IS"), key, blob); art.C.Name != "IS" {
		t.Fatalf("leased artifact is %q", art.C.Name)
	}
	m := cold.Metrics()
	if m.LeasesGranted.Load() != 1 || m.StoreFetches.Load() != 0 {
		t.Fatalf("empty store: leases=%d fetches=%d, want 1/0", m.LeasesGranted.Load(), m.StoreFetches.Load())
	}
	if cold.Degraded() || m.StoreDegraded.Load() != 0 {
		t.Fatal("healthy miss marked the store degraded")
	}
	if m.StoreBlobs.Load() != 1 || bs.Len() != 1 {
		t.Fatalf("feed: blobs metric=%d, stored=%d, want 1/1", m.StoreBlobs.Load(), bs.Len())
	}
	if fed, ok, err := bs.Get(key); err != nil || !ok || !bytes.Equal(fed, blob) {
		t.Fatalf("fed blob: ok=%t err=%v equal=%t", ok, err, bytes.Equal(fed, blob))
	}

	bs2, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCoordinator(CoordinatorOptions{Lease: time.Second, Store: bs2})
	art := hitExecute(t, warm, testSpec("IS"), key)
	if got := marshalArtifact(t, art); !bytes.Equal(got, blob) {
		t.Fatal("store hit does not reproduce the completed artifact")
	}
	wm := warm.Metrics()
	if wm.LeasesGranted.Load() != 0 || wm.Enqueued.Load() != 0 || wm.StoreFetches.Load() != 1 {
		t.Fatalf("warm: leases=%d enqueued=%d fetches=%d, want 0/0/1",
			wm.LeasesGranted.Load(), wm.Enqueued.Load(), wm.StoreFetches.Load())
	}
	if warm.Degraded() {
		t.Fatal("clean store hit marked the sweep degraded")
	}
}

// TestHTTPStoreRejectsCorruptBlob: the coordinator is the store's only
// reader and serves the fleet over HTTP. A blob damaged in place — one
// byte flipped, the length unchanged — is a degraded miss, not a poisoned
// hit: the spec is leased over HTTP, the good completion replaces the
// blob, and the sweep is degraded.
func TestHTTPStoreRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	bs, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(73)
	good := marshalArtifact(t, testArtifact("IS"))
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	if _, err := pipeline.UnmarshalArtifact(bad, testSpec("IS"), key); err == nil {
		t.Fatal("the damaged blob still decodes; the test damages nothing")
	}
	if err := bs.Put(key, bad); err != nil {
		t.Fatal(err)
	}

	ob := obs.NewObserver(nil)
	coord := NewCoordinator(CoordinatorOptions{Lease: time.Second, Store: bs, Obs: ob})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	art := leasedExecute(t, coord, srv.URL, testSpec("IS"), key, good)
	if got := marshalArtifact(t, art); !bytes.Equal(got, good) {
		t.Fatal("Execute returned something other than the leased artifact")
	}
	m := coord.Metrics()
	if !coord.Degraded() || m.StoreDegraded.Load() != 1 || m.StoreFetches.Load() != 0 || m.LeasesGranted.Load() != 1 {
		t.Fatalf("degraded=%t counter=%d fetches=%d leases=%d, want true/1/0/1",
			coord.Degraded(), m.StoreDegraded.Load(), m.StoreFetches.Load(), m.LeasesGranted.Load())
	}
	if n := countEvents(ob, "dist.store.degraded"); n != 1 {
		t.Fatalf("%d dist.store.degraded events, want 1", n)
	}
	if healed, ok, err := bs.Get(key); err != nil || !ok || !bytes.Equal(healed, good) {
		t.Fatalf("damaged blob not replaced by the completion (ok=%t err=%v)", ok, err)
	}
}

// TestWorkerAttachesStoreAndCoordinatorFeedsIt: end to end with a
// polling worker. The worker attaches no store of its own, yet its
// accepted completion feeds the coordinator's blob directory, and a
// repeat of the spec is then served from the store without reaching the
// worker again.
func TestWorkerAttachesStoreAndCoordinatorFeedsIt(t *testing.T) {
	bs, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorOptions{Lease: time.Second, Store: bs})
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

	key := testKey(74)
	if _, err := coord.Execute(ctx, testSpec("IS"), key); err != nil {
		t.Fatal(err)
	}
	// The feed follows the completion's acceptance, which is what
	// Execute waits for. Wait for it, up to a bound.
	for deadline := time.Now().Add(5 * time.Second); coord.Metrics().StoreBlobs.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if coord.Metrics().StoreBlobs.Load() != 1 || bs.Len() != 1 {
		t.Fatalf("feed: blobs metric=%d, stored=%d", coord.Metrics().StoreBlobs.Load(), bs.Len())
	}
	data, ok, err := bs.Get(key)
	if err != nil || !ok {
		t.Fatalf("fed blob not readable: ok=%t err=%v", ok, err)
	}
	if art, err := pipeline.UnmarshalArtifact(data, testSpec("IS"), key); err != nil || art.C.Name != "IS" {
		t.Fatalf("fed blob does not decode: %v", err)
	}

	if art := hitExecute(t, coord, testSpec("IS"), key); art.C.Name != "IS" {
		t.Fatalf("repeat served %q", art.C.Name)
	}
	coord.Finish()
	runner.mu.Lock()
	runs := runner.runs["IS"]
	runner.mu.Unlock()
	m := coord.Metrics()
	if runs != 1 || m.LeasesGranted.Load() != 1 || m.StoreFetches.Load() != 1 {
		t.Fatalf("runs=%d leases=%d fetches=%d, want 1/1/1", runs, m.LeasesGranted.Load(), m.StoreFetches.Load())
	}
	if coord.Degraded() {
		t.Fatal("healthy store run marked degraded")
	}
}

// TestDegradedReportSurfacesThroughCoordinator: the coordinator's own
// store degradation surfaces through every report it makes — Degraded,
// DegradedError with its fallback count and exit code 3, the exported
// counter and the flight recorder — and stays set after the completion
// heals the blob and a repeat of the spec is served from it cleanly.
func TestDegradedReportSurfacesThroughCoordinator(t *testing.T) {
	bs, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(75)
	if err := bs.Put(key, []byte("not an artifact")); err != nil {
		t.Fatal(err)
	}
	ob := obs.NewObserver(nil)
	coord := NewCoordinator(CoordinatorOptions{Lease: time.Second, Store: bs, Obs: ob})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	leasedExecute(t, coord, srv.URL, testSpec("IS"), key, marshalArtifact(t, testArtifact("IS")))
	hitExecute(t, coord, testSpec("IS"), key)
	coord.Finish()

	if !coord.Degraded() {
		t.Fatal("an unusable blob did not mark the sweep degraded")
	}
	var de *DegradedError
	if err := coord.DegradedError(); !errors.As(err, &de) || de.StoreFallbacks != 1 || de.Rescues != 0 {
		t.Fatalf("DegradedError = %#v, want 1 store fallback, 0 rescues", err)
	}
	if code := cli.ExitCode(coord.DegradedError()); code != 3 {
		t.Fatalf("exit code %d, want 3", code)
	}
	if m := coord.Metrics(); m.StoreDegraded.Load() != 1 || m.StoreFetches.Load() != 1 {
		t.Fatalf("store degraded=%d fetches=%d, want 1/1", m.StoreDegraded.Load(), m.StoreFetches.Load())
	}
	r := obs.NewRegistry()
	coord.Metrics().RegisterWith(r)
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\ncommchar_dist_store_degraded_total 1\n") {
		t.Fatal("the degraded counter is not exported as 1")
	}
	if n := countEvents(ob, "dist.store.degraded"); n != 1 {
		t.Fatalf("%d dist.store.degraded events, want 1", n)
	}
}
