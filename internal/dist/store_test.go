package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/resilience"
)

// TestBlobStoreRoundTripOverHTTP: an HTTPStore Put lands in the blob
// directory and a Get returns the verified bytes, with the client-side
// counters advancing and no degradation.
func TestBlobStoreRoundTripOverHTTP(t *testing.T) {
	bs, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(bs.Handler())
	defer srv.Close()

	m := &Metrics{}
	hs := NewHTTPStore(HTTPStoreOptions{Base: srv.URL, Metrics: m})
	key := testKey(70)
	blob := marshalArtifact(t, testArtifact("IS"))

	// A miss on an empty store is healthy, not degraded.
	if _, ok, err := hs.Get(context.Background(), key); ok || err != nil {
		t.Fatalf("empty-store get: ok=%t err=%v", ok, err)
	}
	if hs.Degraded() {
		t.Fatal("healthy miss marked the store degraded")
	}

	if err := hs.Put(context.Background(), key, blob); err != nil {
		t.Fatal(err)
	}
	if bs.Len() != 1 {
		t.Fatalf("blob store holds %d blobs, want 1", bs.Len())
	}
	got, ok, err := hs.Get(context.Background(), key)
	if err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("get: ok=%t err=%v len=%d want=%d", ok, err, len(got), len(blob))
	}
	if m.StoreUploads.Load() != 1 || m.StoreFetches.Load() != 1 {
		t.Fatalf("uploads=%d fetches=%d", m.StoreUploads.Load(), m.StoreFetches.Load())
	}
	if hs.Degraded() || m.StoreDegraded.Load() != 0 {
		t.Fatal("clean round trip degraded the store")
	}
}

// TestBlobStoreRejectsBadKeysAndDamagedUploads: path-escaping keys are
// rejected on both verbs, and an upload whose hash header disagrees with
// its body is refused before it can poison readers.
func TestBlobStoreRejectsBadKeysAndDamagedUploads(t *testing.T) {
	bs, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(bs.Handler())
	defer srv.Close()

	for _, key := range []string{"..%2f..%2fetc", "short", testKey(0)[:63] + "G"} {
		resp, err := http.Get(srv.URL + "/v1/blob/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Fatalf("key %q: status %d", key, resp.StatusCode)
		}
	}

	// Damaged upload: hash header from different bytes.
	key := testKey(71)
	wrong := sha256.Sum256([]byte("other bytes entirely"))
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/blob/"+key, bytes.NewReader([]byte("blob body")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(blobHashHeader, hex.EncodeToString(wrong[:]))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("damaged upload accepted: status %d", resp.StatusCode)
	}
	if bs.Len() != 0 {
		t.Fatal("damaged upload reached the blob directory")
	}
}

// TestHTTPStoreDegradesOnDeadEndpoint: an unreachable store degrades to
// misses — never errors — and after the breaker's threshold the circuit
// opens, so further operations do not even touch the network.
func TestHTTPStoreDegradesOnDeadEndpoint(t *testing.T) {
	// Bind-then-close gives a dead address that refuses connections.
	srv := httptest.NewServer(http.NotFoundHandler())
	deadURL := srv.URL
	srv.Close()

	ob := obs.NewObserver(nil)
	m := &Metrics{}
	hs := NewHTTPStore(HTTPStoreOptions{
		Base: deadURL, Obs: ob, Metrics: m,
		Breaker: resilience.BreakerOptions{Threshold: 2, Cooldown: time.Hour},
	})
	for i := 0; i < 5; i++ {
		if _, ok, err := hs.Get(context.Background(), testKey(72)); ok || err != nil {
			t.Fatalf("get %d: ok=%t err=%v, want degraded miss", i, ok, err)
		}
	}
	if !hs.Degraded() {
		t.Fatal("dead endpoint did not set the sticky degraded flag")
	}
	if got := m.StoreDegraded.Load(); got != 5 {
		t.Fatalf("store degraded counter = %d, want 5", got)
	}
	if hs.Breaker().State() != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", hs.Breaker().State())
	}
	// Puts behind the open circuit degrade without touching the network.
	if err := hs.Put(context.Background(), testKey(72), []byte("x")); err != nil {
		t.Fatalf("degraded put returned an error: %v", err)
	}
	var sawDegraded bool
	for _, ev := range ob.Events.Recent() {
		if ev.Name == "dist.store.degraded" {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("dist.store.degraded event not recorded")
	}
}

// TestHTTPStoreRejectsCorruptBlob: a body that fails SHA-256
// verification is a degraded miss, not a poisoned hit.
func TestHTTPStoreRejectsCorruptBlob(t *testing.T) {
	good := []byte("the blob the hash was computed over")
	sum := sha256.Sum256(good)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(blobHashHeader, hex.EncodeToString(sum[:]))
		w.Write([]byte("corrupted in transit"))
	}))
	defer srv.Close()

	m := &Metrics{}
	hs := NewHTTPStore(HTTPStoreOptions{Base: srv.URL, Metrics: m})
	if _, ok, err := hs.Get(context.Background(), testKey(73)); ok || err != nil {
		t.Fatalf("corrupt blob: ok=%t err=%v, want degraded miss", ok, err)
	}
	if !hs.Degraded() || m.StoreDegraded.Load() != 1 || m.StoreFetches.Load() != 0 {
		t.Fatalf("degraded=%t counter=%d fetches=%d",
			hs.Degraded(), m.StoreDegraded.Load(), m.StoreFetches.Load())
	}
}

// TestWorkerAttachesStoreAndCoordinatorFeedsIt: end to end — the lease
// advertises the coordinator's store, the worker attaches its HTTPStore
// to the coordinator URL, and the accepted completion is fed write-behind
// into the blob directory, where a fresh client can fetch it verified.
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
	hs := NewHTTPStore(HTTPStoreOptions{Metrics: coord.Metrics()})
	w, err := NewWorker(WorkerOptions{
		Name: "w1", Runner: runner, Store: hs, PollInterval: 5 * time.Millisecond,
		Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Poll(ctx, srv.URL)

	key := testKey(74)
	if _, err := coord.Execute(context.Background(), testSpec("IS"), key); err != nil {
		t.Fatal(err)
	}
	coord.Finish()

	if hs.Base() != srv.URL {
		t.Fatalf("worker store base %q, want %q (attached from the lease)", hs.Base(), srv.URL)
	}
	// The feed is write-behind: Execute returns once the completion is
	// accepted, and the blob lands after that. Wait for it, up to a bound.
	for deadline := time.Now().Add(5 * time.Second); coord.Metrics().StoreBlobs.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if coord.Metrics().StoreBlobs.Load() != 1 || bs.Len() != 1 {
		t.Fatalf("write-behind feed: blobs metric=%d, stored=%d",
			coord.Metrics().StoreBlobs.Load(), bs.Len())
	}
	fresh := NewHTTPStore(HTTPStoreOptions{Base: srv.URL, Metrics: &Metrics{}})
	data, ok, err := fresh.Get(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("fed blob not fetchable: ok=%t err=%v", ok, err)
	}
	if art, err := pipeline.UnmarshalArtifact(data, testSpec("IS"), key); err != nil || art.C.Name != "IS" {
		t.Fatalf("fed blob does not decode: %v", err)
	}
	if coord.Degraded() {
		t.Fatal("healthy store run marked degraded")
	}
}

// TestDegradedReportSurfacesThroughCoordinator: a completion carrying
// StoreDegraded marks the sweep degraded — even when it arrives as a
// duplicate — and is counted and flight-recorded.
func TestDegradedReportSurfacesThroughCoordinator(t *testing.T) {
	ob := obs.NewObserver(nil)
	coord := NewCoordinator(CoordinatorOptions{Lease: time.Second, Obs: ob})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	key := testKey(75)
	var wg sync.WaitGroup
	wg.Add(1)
	var execErr error
	go func() {
		defer wg.Done()
		_, execErr = coord.Execute(context.Background(), testSpec("IS"), key)
	}()
	var lease LeaseResponse
	for deadline := time.Now().Add(5 * time.Second); ; {
		postJSON(t, srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: "w1"}, &lease)
		if lease.Status == StatusLease {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lease.Store {
		t.Fatal("lease advertises a store the coordinator does not serve")
	}
	var comp CompleteResponse
	postJSON(t, srv.URL+"/v1/complete", CompleteRequest{
		V: ProtoVersion, Worker: "w1", ID: lease.ID, Key: key,
		Artifact: marshalArtifact(t, testArtifact("IS")), StoreDegraded: true,
	}, &comp)
	wg.Wait()
	if execErr != nil {
		t.Fatal(execErr)
	}
	if !coord.Degraded() {
		t.Fatal("worker's degradation report did not mark the sweep degraded")
	}
	if coord.Metrics().DegradedReports.Load() != 1 {
		t.Fatalf("degraded reports = %d", coord.Metrics().DegradedReports.Load())
	}
	var saw bool
	for _, ev := range ob.Events.Recent() {
		if ev.Name == "dist.store.degraded.reported" {
			saw = true
		}
	}
	if !saw {
		t.Fatal("dist.store.degraded.reported event not recorded")
	}
}
