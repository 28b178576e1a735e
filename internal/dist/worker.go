package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/resilience"
)

// A Runner executes one RunSpec to an artifact. *pipeline.Engine
// satisfies it, which gives a worker the full local pipeline — disk
// cache, panic isolation — under each lease; tests substitute
// fakes to script crashes and hangs.
type Runner interface {
	RunContext(ctx context.Context, spec pipeline.RunSpec) (*pipeline.Artifact, error)
}

// WorkerOptions configures a Worker. Zero values take the defaults.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (heartbeats, lease
	// bookkeeping, lost-worker events). Required.
	Name string
	// Runner executes leased specs; normally a *pipeline.Engine with its
	// own cache directory. Required.
	Runner Runner
	// Obs receives worker-side events; nil is a no-op.
	Obs *obs.Observer
	// Retry is the RPC retry schedule; zero means resilience defaults.
	Retry resilience.Policy
	// RPCTimeout bounds one RPC attempt; default 30s.
	RPCTimeout time.Duration
	// PollInterval is the idle wait between lease polls when the
	// coordinator answers "wait"; default 250ms.
	PollInterval time.Duration
	// UnreachableGrace is how long Poll keeps retrying a coordinator
	// that answers nothing at all before giving it up for dead; default
	// 2m. (A coordinator mid-restart answers within the grace; one whose
	// process is gone for good should not pin a worker forever.)
	UnreachableGrace time.Duration
	// Transport overrides the RPC client's HTTP transport (fault
	// injection for the chaos matrix).
	Transport http.RoundTripper
	// Clock supplies the worker's time base; nil means the observer's
	// clock (the system clock when unobserved).
	Clock obs.Clock
}

// A Worker executes leased specs from a coordinator: poll for a lease,
// run the spec through the Runner, heartbeat while it runs, report the
// artifact (or the failure) back. A worker holds no sweep
// state — killing one loses nothing but its in-flight lease, which the
// coordinator re-enqueues on expiry.
type Worker struct {
	name             string
	runner           Runner
	ob               *obs.Observer
	client           *client
	clock            obs.Clock
	pollInterval     time.Duration
	unreachableGrace time.Duration
}

// NewWorker builds a worker from opts.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("dist: worker needs a name")
	}
	if opts.Runner == nil {
		return nil, fmt.Errorf("dist: worker %s needs a runner", opts.Name)
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 250 * time.Millisecond
	}
	if opts.UnreachableGrace <= 0 {
		opts.UnreachableGrace = 2 * time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = opts.Obs.ClockOrSystem()
	}
	cl := newClient(opts.Retry, opts.RPCTimeout)
	if opts.Transport != nil {
		cl.setTransport(opts.Transport)
	}
	return &Worker{
		name:             opts.Name,
		runner:           opts.Runner,
		ob:               opts.Obs,
		client:           cl,
		clock:            opts.Clock,
		pollInterval:     opts.PollInterval,
		unreachableGrace: opts.UnreachableGrace,
	}, nil
}

// Poll serves one coordinator until its sweep is done, ctx is
// cancelled, or the coordinator stays unreachable past the grace
// period. Every lease failure mode is survivable by design: a crash of
// this process only costs the in-flight lease.
func (w *Worker) Poll(ctx context.Context, coordinatorURL string) error {
	w.ob.Emit("dist.worker.attach", map[string]string{"worker": w.name, "coordinator": coordinatorURL})
	unreachableSince := time.Time{}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		err := w.client.post(ctx, coordinatorURL+"/v1/lease", LeaseRequest{V: ProtoVersion, Worker: w.name}, &lease)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if resilience.Classify(err) == resilience.Permanent {
				return fmt.Errorf("dist: worker %s: lease poll: %w", w.name, err)
			}
			// Transient and already retried by the client's policy: the
			// coordinator is unreachable. Keep knocking until the grace
			// period runs out — it may be restarting.
			if unreachableSince.IsZero() {
				unreachableSince = w.clock.Now()
				w.ob.Emit("dist.coordinator.unreachable", map[string]string{"worker": w.name, "coordinator": coordinatorURL})
			} else if w.clock.Now().Sub(unreachableSince) > w.unreachableGrace {
				return fmt.Errorf("dist: worker %s: coordinator %s unreachable for %v: %w",
					w.name, coordinatorURL, w.unreachableGrace, err)
			}
			if !sleepCtx(ctx, w.pollInterval) {
				return ctx.Err()
			}
			continue
		}
		unreachableSince = time.Time{}
		switch lease.Status {
		case StatusDone:
			// Best effort, so the error is dropped: a coordinator that never
			// hears the goodbye waits out its drain bound, and an older one
			// answers 404.
			_ = w.client.post(ctx, coordinatorURL+"/v1/detach", DetachRequest{V: ProtoVersion, Worker: w.name}, nil)
			w.ob.Emit("dist.worker.detach", map[string]string{"worker": w.name, "coordinator": coordinatorURL})
			return nil
		case StatusWait:
			if !sleepCtx(ctx, w.pollInterval) {
				return ctx.Err()
			}
		case StatusLease:
			w.serve(ctx, coordinatorURL, lease)
		default:
			return fmt.Errorf("dist: worker %s: coordinator answered unknown lease status %q", w.name, lease.Status)
		}
	}
}

// serve executes one lease end to end: run the spec with heartbeats,
// then report the artifact or the failure. Errors inside a
// lease never abort the polling loop — they are reported to the
// coordinator (or swallowed when the lease was already abandoned) and
// the worker moves on.
func (w *Worker) serve(ctx context.Context, coordinatorURL string, lease LeaseResponse) {
	var spec pipeline.RunSpec
	if err := json.Unmarshal(lease.Spec, &spec); err != nil {
		// Report an undecodable spec so the coordinator fails the item
		// instead of waiting out the lease.
		w.reportFailure(ctx, coordinatorURL, lease.ID,
			fmt.Errorf("dist: worker %s: decoding leased spec: %w", w.name, err))
		return
	}
	label := spec.Label()
	w.ob.Emit("dist.lease.run", map[string]string{"worker": w.name, "spec": label, "key": lease.Key})
	sp := w.ob.StartSpan("worker", w.name, "dist", "run "+label)
	defer sp.End()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	abandoned := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(runCtx, coordinatorURL, lease, cancel, abandoned)
	}()

	art, err := w.runner.RunContext(runCtx, spec)
	cancel()
	<-hbDone
	select {
	case <-abandoned:
		// The coordinator re-granted the lease (or finished the item):
		// drop the result. If the run did complete, deliver it anyway —
		// completion is idempotent and a duplicate costs one upload.
		if err != nil {
			w.ob.Emit("dist.lease.abandoned", map[string]string{"worker": w.name, "spec": label})
			return
		}
	default:
	}
	if err != nil {
		if ctx.Err() != nil {
			return // the worker itself is shutting down; the lease will expire
		}
		w.reportFailure(ctx, coordinatorURL, lease.ID, err)
		return
	}
	w.deliver(ctx, coordinatorURL, lease, art)
}

// heartbeatLoop extends the lease at a third of its duration until the
// run context ends; an Abandon answer cancels the run.
func (w *Worker) heartbeatLoop(ctx context.Context, coordinatorURL string, lease LeaseResponse, cancel context.CancelFunc, abandoned chan<- struct{}) {
	interval := time.Duration(lease.LeaseMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	//lint:allow determinism heartbeats pace a real network lease; the Clock seam only supplies Now
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var resp HeartbeatResponse
		req := HeartbeatRequest{V: ProtoVersion, Worker: w.name, ID: lease.ID}
		// One attempt per tick: a missed heartbeat is recovered by the
		// next tick well inside the lease, and queueing retries behind a
		// slow coordinator would bunch them.
		body, err := json.Marshal(req)
		if err != nil {
			continue
		}
		if err := w.client.postOnce(ctx, coordinatorURL+"/v1/heartbeat", body, &resp); err != nil {
			continue
		}
		if resp.Abandon {
			close(abandoned)
			cancel()
			return
		}
	}
}

// deliver uploads the artifact, retrying transient failures; a duplicate
// acknowledgement is success (someone else delivered first).
func (w *Worker) deliver(ctx context.Context, coordinatorURL string, lease LeaseResponse, art *pipeline.Artifact) {
	data, err := pipeline.MarshalArtifact(art)
	if err != nil {
		w.reportFailure(ctx, coordinatorURL, lease.ID,
			fmt.Errorf("dist: worker %s: encoding artifact: %w", w.name, err))
		return
	}
	req := CompleteRequest{
		V: ProtoVersion, Worker: w.name, ID: lease.ID, Key: lease.Key,
		Artifact: data,
	}
	var resp CompleteResponse
	if err := w.client.post(ctx, coordinatorURL+"/v1/complete", req, &resp); err != nil {
		w.ob.Emit("dist.deliver.failed", map[string]string{"worker": w.name, "key": lease.Key, "error": err.Error()})
		return // the lease expires and the work is re-enqueued elsewhere
	}
	name := "dist.delivered"
	if resp.Duplicate {
		name = "dist.delivered.duplicate"
	}
	w.ob.Emit(name, map[string]string{"worker": w.name, "key": lease.Key})
}

// reportFailure posts the lease's failure; if even the report cannot be
// delivered, the lease expiry carries the news.
func (w *Worker) reportFailure(ctx context.Context, coordinatorURL string, id uint64, runErr error) {
	req := FailRequest{V: ProtoVersion, Worker: w.name, ID: id, Error: runErr.Error()}
	var resp FailResponse
	if err := w.client.post(ctx, coordinatorURL+"/v1/fail", req, &resp); err != nil {
		w.ob.Emit("dist.fail.undelivered", map[string]string{"worker": w.name, "error": err.Error()})
	}
}

// sleepCtx waits d or until ctx is cancelled, reporting whether the full
// wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	//lint:allow determinism cancellable real-time wait between polls; the Clock seam only supplies Now
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
