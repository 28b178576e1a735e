package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commchar/internal/apps"
	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/resilience"
)

// testArtifact builds a small, fully wire-round-trippable artifact for a
// testSpec of the same name (the decoder checks the processor count
// against the spec).
func testArtifact(name string) *pipeline.Artifact {
	log := []mesh.Delivery{
		{ID: 1, Src: 0, Dst: 1, Bytes: 64, Inject: 10, End: 30, Blocked: 0, Hops: 1},
		{ID: 2, Src: 1, Dst: 0, Bytes: 128, Inject: 40, End: 90, Blocked: 5, Hops: 1},
	}
	return &pipeline.Artifact{
		C: &core.Characterization{
			Name: name, Strategy: core.StrategyDynamic, Procs: 4,
			Messages: len(log), TotalBytes: 192, Elapsed: 90,
			Log: log,
		},
	}
}

func testSpec(name string) pipeline.RunSpec {
	return pipeline.RunSpec{App: name, Procs: 4, Scale: apps.ScaleSmall}
}

func testKey(i int) string { return fmt.Sprintf("%064x", 0xd15c0+i) }

// postJSON is the raw-HTTP side of the protocol tests: no client retry
// machinery, just one request.
func postJSON(t *testing.T, url string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if resp != nil && httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return httpResp.StatusCode
}

func marshalArtifact(t *testing.T, a *pipeline.Artifact) []byte {
	t.Helper()
	data, err := pipeline.MarshalArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLeaseLifecycleOverHTTP drives the full protocol with raw HTTP:
// lease, heartbeat, complete, duplicate, finish.
func TestLeaseLifecycleOverHTTP(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Lease: time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	spec, key := testSpec("IS"), testKey(0)
	type result struct {
		art *pipeline.Artifact
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		art, err := coord.Execute(context.Background(), spec, key)
		resCh <- result{art, err}
	}()

	// Poll until the enqueue is visible; then the lease must carry the spec.
	var lease LeaseResponse
	for deadline := time.Now().Add(5 * time.Second); ; {
		postJSON(t, srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: "w1"}, &lease)
		if lease.Status == StatusLease {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lease granted, last status %q", lease.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lease.Key != key || lease.LeaseMS != 1000 {
		t.Fatalf("lease = %+v", lease)
	}
	var leasedSpec pipeline.RunSpec
	if err := json.Unmarshal(lease.Spec, &leasedSpec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(leasedSpec, spec) {
		t.Fatalf("leased spec %+v != %+v", leasedSpec, spec)
	}

	// Nothing else pending: the next poll waits.
	var second LeaseResponse
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: "w2"}, &second)
	if second.Status != StatusWait {
		t.Fatalf("second lease status %q, want wait", second.Status)
	}

	var hb HeartbeatResponse
	postJSON(t, srv.URL+"/v1/heartbeat", HeartbeatRequest{V: ProtoVersion, Worker: "w1", ID: lease.ID}, &hb)
	if hb.Abandon {
		t.Fatal("live lease told to abandon")
	}

	art := testArtifact("IS")
	var comp CompleteResponse
	postJSON(t, srv.URL+"/v1/complete",
		CompleteRequest{V: ProtoVersion, Worker: "w1", ID: lease.ID, Key: key, Artifact: marshalArtifact(t, art)}, &comp)
	if comp.Duplicate {
		t.Fatal("first completion reported duplicate")
	}

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !reflect.DeepEqual(res.art.C, art.C) {
		t.Fatal("artifact did not round-trip through the wire")
	}

	// Completion is idempotent: a second upload is a duplicate, not an error.
	postJSON(t, srv.URL+"/v1/complete",
		CompleteRequest{V: ProtoVersion, Worker: "w2", ID: lease.ID, Key: key, Artifact: marshalArtifact(t, art)}, &comp)
	if !comp.Duplicate {
		t.Fatal("second completion not reported duplicate")
	}
	if coord.Metrics().Duplicates.Load() == 0 {
		t.Fatal("duplicate not counted")
	}

	coord.Finish()
	var done LeaseResponse
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: "w1"}, &done)
	if done.Status != StatusDone {
		t.Fatalf("post-finish lease status %q, want done", done.Status)
	}

	st := coord.State()
	if st.Done != 1 || st.Pending+st.Leased+st.Failed != 0 || !st.Finished {
		t.Fatalf("state = %+v", st)
	}
}

// TestLeaseExpiryRequeues proves the crash-recovery core: a worker that
// takes a lease and goes silent loses it, the spec is re-enqueued, a
// second worker completes it, and the loss shows up as events and
// metrics — never as a sweep failure.
func TestLeaseExpiryRequeues(t *testing.T) {
	ob := obs.NewObserver(nil)
	coord := NewCoordinator(CoordinatorOptions{Lease: 60 * time.Millisecond, Obs: ob})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	spec, key := testSpec("MG"), testKey(1)
	resCh := make(chan error, 1)
	go func() {
		_, err := coord.Execute(context.Background(), spec, key)
		resCh <- err
	}()

	// w1 takes the lease and "crashes" (never heartbeats, never reports).
	var first LeaseResponse
	for deadline := time.Now().Add(5 * time.Second); ; {
		postJSON(t, srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: "w1"}, &first)
		if first.Status == StatusLease {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("w1 never got the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The lease expires and w2 inherits the work.
	var second LeaseResponse
	for deadline := time.Now().Add(5 * time.Second); ; {
		postJSON(t, srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: "w2"}, &second)
		if second.Status == StatusLease {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-granted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if second.ID != first.ID || second.Key != key {
		t.Fatalf("re-grant is a different item: %+v vs %+v", second, first)
	}

	// w1's heartbeat after the re-grant is told to abandon.
	var hb HeartbeatResponse
	postJSON(t, srv.URL+"/v1/heartbeat", HeartbeatRequest{V: ProtoVersion, Worker: "w1", ID: first.ID}, &hb)
	if !hb.Abandon {
		t.Fatal("expired holder's heartbeat not told to abandon")
	}

	art := testArtifact("MG")
	var comp CompleteResponse
	postJSON(t, srv.URL+"/v1/complete",
		CompleteRequest{V: ProtoVersion, Worker: "w2", ID: second.ID, Key: key, Artifact: marshalArtifact(t, art)}, &comp)
	if comp.Duplicate {
		t.Fatal("w2's completion reported duplicate")
	}
	if err := <-resCh; err != nil {
		t.Fatalf("sweep failed despite failover: %v", err)
	}

	m := coord.Metrics()
	if m.LeaseExpiries.Load() < 1 || m.Requeues.Load() < 1 || m.WorkersLost.Load() != 1 {
		t.Fatalf("metrics: expiries=%d requeues=%d lost=%d",
			m.LeaseExpiries.Load(), m.Requeues.Load(), m.WorkersLost.Load())
	}
	var sawLost, sawExpired bool
	for _, ev := range ob.Events.Recent() {
		switch ev.Name {
		case "dist.worker.lost":
			sawLost = true
		case "dist.lease.expired":
			sawExpired = true
		}
	}
	if !sawLost || !sawExpired {
		t.Fatalf("flight recorder missing events: lost=%t expired=%t", sawLost, sawExpired)
	}
}

// TestHeartbeatKeepsLeaseAlive: a slow worker that heartbeats holds its
// lease well past the lease duration.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Lease: 80 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	spec, key := testSpec("FFT"), testKey(2)
	resCh := make(chan error, 1)
	go func() {
		_, err := coord.Execute(context.Background(), spec, key)
		resCh <- err
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

	// Hold for 4 lease durations, heartbeating at a third of the lease.
	for i := 0; i < 12; i++ {
		time.Sleep(25 * time.Millisecond)
		var hb HeartbeatResponse
		postJSON(t, srv.URL+"/v1/heartbeat", HeartbeatRequest{V: ProtoVersion, Worker: "w1", ID: lease.ID}, &hb)
		if hb.Abandon {
			t.Fatalf("heartbeating lease abandoned on tick %d", i)
		}
	}
	if n := coord.Metrics().LeaseExpiries.Load(); n != 0 {
		t.Fatalf("%d lease expiries despite heartbeats", n)
	}

	var comp CompleteResponse
	postJSON(t, srv.URL+"/v1/complete",
		CompleteRequest{V: ProtoVersion, Worker: "w1", ID: lease.ID, Key: key, Artifact: marshalArtifact(t, testArtifact("FFT"))}, &comp)
	if comp.Duplicate {
		t.Fatal("completion after long heartbeat run reported duplicate")
	}
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
}

// TestVersionMismatchIsPermanent: protocol skew is rejected with a
// *ProtocolError the resilience taxonomy calls permanent, and the client
// does not retry it.
func TestVersionMismatchIsPermanent(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		coord.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := newClient(resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond}, time.Second)
	var lease LeaseResponse
	err := c.post(context.Background(), srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion + 7, Worker: "w1"}, &lease)
	if err == nil {
		t.Fatal("mismatched version accepted")
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *ProtocolError: %v", err)
	}
	if resilience.Classify(err) != resilience.Permanent {
		t.Fatalf("version mismatch classified transient: %v", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("permanent rejection was retried: %d requests", n)
	}
}

// TestClientRetriesTransient: 5xx answers and refused connections are
// retried on the deterministic backoff schedule.
func TestClientRetriesTransient(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "coordinator mid-restart", http.StatusInternalServerError)
			return
		}
		writeJSON(w, LeaseResponse{Status: StatusWait})
	}))
	defer srv.Close()

	c := newClient(resilience.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, time.Second)
	var lease LeaseResponse
	if err := c.post(context.Background(), srv.URL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: "w1"}, &lease); err != nil {
		t.Fatalf("transient 5xx not survived: %v", err)
	}
	if lease.Status != StatusWait {
		t.Fatalf("status %q", lease.Status)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("%d requests, want 3 (two 5xx then success)", n)
	}
}

// fakeRunner scripts worker-side execution per spec name.
type fakeRunner struct {
	mu sync.Mutex
	fn func(ctx context.Context, spec pipeline.RunSpec) (*pipeline.Artifact, error)
	// runs counts invocations per spec name.
	runs map[string]int
}

func (f *fakeRunner) RunContext(ctx context.Context, spec pipeline.RunSpec) (*pipeline.Artifact, error) {
	f.mu.Lock()
	if f.runs == nil {
		f.runs = map[string]int{}
	}
	f.runs[spec.App]++
	f.mu.Unlock()
	return f.fn(ctx, spec)
}

// TestWorkerPollServesSweep: a worker polls, executes every spec through
// its runner, delivers, and exits cleanly when the coordinator finishes.
func TestWorkerPollServesSweep(t *testing.T) {
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
	pollErr := make(chan error, 1)
	go func() { pollErr <- w.Poll(ctx, srv.URL) }()

	names := []string{"IS", "MG", "FFT"}
	arts := make([]*pipeline.Artifact, len(names))
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			art, err := coord.Execute(context.Background(), testSpec(name), testKey(10+i))
			mu.Lock()
			arts[i] = art
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(i, name)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for i, name := range names {
		if arts[i] == nil || arts[i].C.Name != name {
			t.Fatalf("spec %s: wrong artifact %+v", name, arts[i])
		}
	}
	coord.Finish()
	select {
	case err := <-pollErr:
		if err != nil {
			t.Fatalf("poll ended with: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit after finish")
	}
	if n := coord.Metrics().Completions.Load(); n != int64(len(names)) {
		t.Fatalf("completions = %d", n)
	}
}

// TestChaosCrashedWorkerFailsOver is the in-process kill test: worker 1
// hangs mid-run and its process "dies" (its context is cut, like a
// SIGKILL); the lease expires, worker 2 inherits the spec, and the sweep
// completes with the loss visible in metrics and the flight recorder.
func TestChaosCrashedWorkerFailsOver(t *testing.T) {
	ob := obs.NewObserver(nil)
	coord := NewCoordinator(CoordinatorOptions{Lease: 60 * time.Millisecond, Obs: ob})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Worker 1 wedges on its first spec and never returns until killed.
	w1Ctx, killW1 := context.WithCancel(ctx)
	defer killW1()
	hung := make(chan struct{}, 1)
	r1 := &fakeRunner{fn: func(ctx context.Context, spec pipeline.RunSpec) (*pipeline.Artifact, error) {
		hung <- struct{}{}
		<-ctx.Done() // wedged until the "kill"
		return nil, ctx.Err()
	}}
	w1, err := NewWorker(WorkerOptions{Name: "w1", Runner: r1, PollInterval: 5 * time.Millisecond,
		Retry: resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	go w1.Poll(w1Ctx, srv.URL)

	resCh := make(chan error, 1)
	go func() {
		_, err := coord.Execute(context.Background(), testSpec("IS"), testKey(20))
		resCh <- err
	}()

	// Wait until w1 holds the lease and is wedged, then kill it.
	select {
	case <-hung:
	case <-time.After(5 * time.Second):
		t.Fatal("w1 never started the spec")
	}
	killW1()

	// Worker 2 joins and inherits the expired lease.
	r2 := &fakeRunner{fn: func(ctx context.Context, spec pipeline.RunSpec) (*pipeline.Artifact, error) {
		return testArtifact(spec.App), nil
	}}
	w2, err := NewWorker(WorkerOptions{Name: "w2", Runner: r2, PollInterval: 5 * time.Millisecond,
		Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	go w2.Poll(ctx, srv.URL)

	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("sweep failed despite failover: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("failover never completed the spec")
	}
	m := coord.Metrics()
	if m.LeaseExpiries.Load() < 1 || m.WorkersLost.Load() < 1 {
		t.Fatalf("metrics: expiries=%d lost=%d", m.LeaseExpiries.Load(), m.WorkersLost.Load())
	}
	var sawLost bool
	for _, ev := range ob.Events.Recent() {
		if ev.Name == "dist.worker.lost" && ev.Fields["worker"] == "w1" {
			sawLost = true
		}
	}
	if !sawLost {
		t.Fatal("dist.worker.lost event not recorded")
	}
	coord.Finish()
}

// TestWorkerReportsPermanentFailure: a permanent worker-side failure
// fails the spec for the sweep (no endless requeue), carrying the
// worker's error text.
func TestWorkerReportsPermanentFailure(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Lease: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	runner := &fakeRunner{fn: func(ctx context.Context, spec pipeline.RunSpec) (*pipeline.Artifact, error) {
		return nil, errors.New("simulation rejected the spec")
	}}
	w, err := NewWorker(WorkerOptions{Name: "w1", Runner: runner, PollInterval: 5 * time.Millisecond,
		Retry: resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	go w.Poll(ctx, srv.URL)

	_, execErr := coord.Execute(context.Background(), testSpec("CG"), testKey(30))
	if execErr == nil {
		t.Fatal("permanent worker failure did not fail the spec")
	}
	if got := execErr.Error(); !bytes.Contains([]byte(got), []byte("simulation rejected the spec")) {
		t.Fatalf("worker error text lost: %v", got)
	}
	if n := coord.Metrics().RemoteFailures.Load(); n != 1 {
		t.Fatalf("remote failures = %d", n)
	}
	coord.Finish()
}

// TestEngineRemoteMatchesLocal runs one real spec both locally and
// through a coordinator/worker pair wired into a real engine, and
// requires the wire-serialized artifacts to be byte-identical — the
// distributed determinism invariant at its smallest.
func TestEngineRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	spec := pipeline.RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}

	local, err := pipeline.New(pipeline.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(CoordinatorOptions{Lease: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	workerEngine, err := pipeline.New(pipeline.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{Name: "w1", Runner: workerEngine, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go w.Poll(ctx, srv.URL)

	front, err := pipeline.New(pipeline.Options{Parallel: 1, Remote: coord})
	if err != nil {
		t.Fatal(err)
	}
	got, err := front.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	coord.Finish()

	if got.Source != pipeline.SourceRemote {
		t.Fatalf("source = %q, want remote", got.Source)
	}
	wantWire := marshalArtifact(t, want)
	gotWire := marshalArtifact(t, got)
	if !bytes.Equal(wantWire, gotWire) {
		t.Fatalf("remote artifact differs from local: %d vs %d bytes", len(gotWire), len(wantWire))
	}
	if !reflect.DeepEqual(got.C, want.C) {
		t.Fatal("characterizations differ between remote and local")
	}
}

// TestServeCoordinatorDismissesJoinedWorker: the one coordinator
// bootstrap serves its lease API on the bound loopback address, a worker
// that joins it runs the work, and its shutdown dismisses the worker
// before the lease API goes away, so Poll ends cleanly.
func TestServeCoordinatorDismissesJoinedWorker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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

	coord, url, shutdown, err := ServeCoordinator(ctx, CoordinatorOptions{Lease: time.Second},
		Fleet{Drain: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("coordinator URL %q is not the bound loopback address", url)
	}
	polled := make(chan error, 1)
	go func() { polled <- w.Poll(ctx, url) }()
	art, err := coord.Execute(ctx, testSpec("IS"), testKey(70))
	if err != nil || art.C.Name != "IS" {
		t.Fatalf("remote run: art=%+v err=%v", art, err)
	}
	shutdown()
	coord.mu.Lock()
	detached := coord.detached["w1"]
	coord.mu.Unlock()
	if !detached {
		t.Fatal("shutdown returned before the joined worker detached")
	}
	if err := <-polled; err != nil {
		t.Fatalf("Poll = %v, want a clean dismissal", err)
	}
	if err := coord.DegradedError(); err != nil {
		t.Fatalf("healthy fleet reports %v", err)
	}
}

// TestLostDismissalReplyStillDetaches: a reset delivers the worker's
// first lease poll to a finished coordinator but loses the StatusDone
// answer. Shutdown must keep the lease API up until the worker's retry
// is dismissed again and detaches, so Poll ends cleanly instead of
// knocking on a closed listener until its unreachable grace runs out.
func TestLostDismissalReplyStillDetaches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord, url, shutdown, err := ServeCoordinator(ctx, CoordinatorOptions{Lease: time.Second},
		Fleet{Drain: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	sched, err := fault.ParseNet("reset:1@0-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{
		Name: "w1", Runner: &fakeRunner{}, PollInterval: 5 * time.Millisecond,
		Retry:            resilience.Policy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond},
		UnreachableGrace: 200 * time.Millisecond,
		Transport:        fault.NewRoundTripper(sched, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	polled := make(chan error, 1)
	go func() { polled <- w.Poll(ctx, url) }()
	// Shut down the moment the coordinator has answered the first poll:
	// that answer is being lost, and the client's retry is 50-100ms away.
	for seen := false; !seen; time.Sleep(time.Millisecond) {
		coord.mu.Lock()
		seen = coord.seen["w1"]
		coord.mu.Unlock()
	}
	shutdown()
	select {
	case err := <-polled:
		if err != nil {
			t.Fatalf("Poll = %v, want a clean dismissal", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Poll did not return")
	}
}
