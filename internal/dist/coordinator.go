package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"commchar/internal/obs"
	"commchar/internal/pipeline"
)

// Item states in the coordinator's queue.
const (
	statePending = "pending" // enqueued, waiting for a worker
	stateLeased  = "leased"  // held by a worker under a live lease
	stateDone    = "done"    // artifact accepted
	stateFailed  = "failed"  // permanently failed (or abandoned by its submitter)
)

// item is one unit of distributed work: a RunSpec the engine asked the
// coordinator to execute remotely.
type item struct {
	id       uint64
	spec     pipeline.RunSpec
	specJSON json.RawMessage
	key      string
	label    string

	state    string
	attempts int // leases granted for this item
	// primary is the holder's lease while leased; once the item is done
	// or failed, primary.worker names the worker that settled it.
	primary lease
	// Speculative re-lease (straggler hedging) state. hedgePending marks
	// the item flagged for hedging and re-queued; hedge is the second,
	// concurrent lease once an idle worker picks it up.
	hedgePending bool
	hedge        *lease

	done chan struct{} // closed exactly once on done or failed
	art  *pipeline.Artifact
	err  error
}

// lease is one worker's time-bounded hold on an item: the primary, or a
// speculative hedge racing it.
type lease struct {
	worker   string
	deadline time.Time // expiry, pushed out by each heartbeat
	start    time.Time // grant time: a completion's duration sample starts here
}

// expired reports whether l, nil for an absent hedge, is past its deadline.
func (l *lease) expired(now time.Time) bool {
	return l != nil && !now.Before(l.deadline)
}

// leaseOf returns worker's lease on a leased item, the primary or the
// hedge, or nil when worker holds none (or it is nil or not leased).
func (it *item) leaseOf(worker string) *lease {
	switch {
	case it == nil || it.state != stateLeased:
		return nil
	case worker == it.primary.worker:
		return &it.primary
	case it.hedge != nil && worker == it.hedge.worker:
		return it.hedge
	}
	return nil
}

// CoordinatorOptions configures a Coordinator. The zero value works.
type CoordinatorOptions struct {
	// Lease is how long a worker may hold a spec between heartbeats
	// before the work is re-enqueued. Default 15s.
	Lease time.Duration
	// MaxAttempts bounds how many leases one spec may consume (initial
	// grant plus re-grants after expiry) before the coordinator fails it
	// permanently. Default 5.
	MaxAttempts int
	// Obs receives lease-lifecycle events and spans; nil is a no-op.
	Obs *obs.Observer
	// Metrics receives the commchar_dist_* counters; nil allocates a
	// private set.
	Metrics *Metrics
	// Store, when non-nil, is the shared blob store: Execute serves a
	// spec found there without a lease, and every accepted completion is
	// fed into it.
	Store *BlobStore
	// SpeculateFactor enables speculative re-lease of stragglers: a
	// leased spec whose lease has run longer than SpeculateFactor times
	// the running median of completed lease durations is hedged onto an
	// idle worker (first finish wins; completions are idempotent). 0 (the
	// default) disables hedging — duplicate simulation work is only worth
	// it when the operator says so.
	SpeculateFactor float64
	// Clock supplies the coordinator's time base; nil means the
	// observer's clock (the system clock when unobserved). Tests inject
	// an obs.Fake to drive lease expiry and hedging deterministically.
	Clock obs.Clock
}

// A Coordinator owns the distributed work queue: it implements
// pipeline.Executor on the submission side (the engine calls Execute for
// every cache-miss spec) and serves the worker-facing HTTP API on the
// other (Handler). Work is handed out as time-bounded leases; an expired
// lease is re-enqueued, so a crashed or hung worker never strands a
// spec. Completions are deduplicated on the spec's content-addressed
// cache key: whichever worker delivers first wins, later deliveries are
// acknowledged as duplicates and discarded.
type Coordinator struct {
	lease           time.Duration
	maxAttempts     int
	ob              *obs.Observer
	metrics         *Metrics
	store           *BlobStore
	speculateFactor float64
	clock           obs.Clock

	mu        sync.Mutex
	nextID    uint64
	items     map[uint64]*item
	queue     []uint64 // FIFO of item ids; entries may be stale (lazy skip)
	finished  bool
	degraded  bool            // an unusable blob was leased, or a straggler rescued
	durations []time.Duration // completed lease durations (speculation median)
	lost      map[string]bool // workers currently presumed lost
	seen      map[string]bool // workers that have ever polled for a lease
	detached  map[string]bool // workers that said goodbye after StatusDone
}

// NewCoordinator builds a coordinator. Call Start to run lease expiry,
// mount Handler on a listener for workers, and hand the coordinator to
// the engine as its pipeline.Executor.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.Lease <= 0 {
		opts.Lease = 15 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.Metrics == nil {
		opts.Metrics = &Metrics{}
	}
	if opts.Clock == nil {
		opts.Clock = opts.Obs.ClockOrSystem()
	}
	return &Coordinator{
		lease:           opts.Lease,
		maxAttempts:     opts.MaxAttempts,
		ob:              opts.Obs,
		metrics:         opts.Metrics,
		store:           opts.Store,
		speculateFactor: opts.SpeculateFactor,
		clock:           opts.Clock,
		items:           map[uint64]*item{},
		lost:            map[string]bool{},
		seen:            map[string]bool{},
		detached:        map[string]bool{},
	}
}

// Metrics returns the coordinator's counter set (for registration on a
// debug server's registry).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Degraded reports whether the sweep completed degraded: a blob in the
// shared store could not be read or decoded and its spec was leased
// instead, or a straggler had to be rescued by a speculative re-lease.
// The results are still complete and correct — degradation is an
// availability finding, surfaced as exit code 3 so operators notice
// without diffing metrics.
func (c *Coordinator) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// DegradedError returns the *DegradedError a degraded sweep exits with
// (see Degraded), or nil when the fleet stayed healthy.
func (c *Coordinator) DegradedError() error {
	if !c.Degraded() {
		return nil
	}
	return &DegradedError{
		StoreFallbacks: c.metrics.StoreDegraded.Load(),
		Rescues:        c.metrics.Rescues.Load(),
	}
}

// Fleet says where ServeCoordinator serves. Workers find it themselves:
// each one polls the returned URL (sweepd -worker -join).
type Fleet struct {
	// BlobDir, when set, holds the shared artifact blob store that
	// serves finished specs without a lease.
	BlobDir string
	// Listen is the lease API's address; "" means 127.0.0.1:0.
	Listen string
	// Drain bounds how long shutdown waits for the fleet to detach.
	Drain time.Duration
}

// ServeCoordinator builds a coordinator from opts (reading and feeding
// the blob store in fleet.BlobDir, if set), serves its lease API,
// registers its metrics and /distz page with opts.Obs, and starts lease
// expiry. It returns the coordinator, the bound listener's URL for the
// workers to join, and the shutdown to call once the engine is done: it
// dismisses the fleet (Finish, then Drain up to fleet.Drain) while the
// lease API is still up, so workers detach instead of waiting out their
// unreachable grace against a dead address, and then stops serving.
// Calls after the first do nothing.
func ServeCoordinator(ctx context.Context, opts CoordinatorOptions, fleet Fleet) (*Coordinator, string, func(), error) {
	if fleet.BlobDir != "" {
		store, err := NewBlobStore(fleet.BlobDir)
		if err != nil {
			return nil, "", nil, err
		}
		opts.Store = store
	}
	coord := NewCoordinator(opts)
	addr := fleet.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("coordinator listener: %w", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	coord.Start(ctx)
	if opts.Obs != nil {
		coord.Metrics().RegisterWith(opts.Obs.Registry)
	}
	opts.Obs.HandleDebug("/distz", coord.DebugHandler())
	url := "http://" + ln.Addr().String()
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			coord.Finish()
			coord.Drain(ctx, fleet.Drain)
			srv.Close()
		})
	}
	return coord, url, shutdown, nil
}

// Start runs the lease-expiry sweep until ctx is cancelled. Leases are
// checked at a quarter of the lease interval, so an expired lease is
// re-enqueued at most 1.25 lease durations after its last heartbeat.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		//lint:allow determinism the expiry sweep needs a real ticker; the Clock seam only supplies Now, and every decision the tick triggers goes through c.clock
		tick := time.NewTicker(c.lease / 4)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				c.expire(c.clock.Now())
			}
		}
	}()
}

// Execute implements pipeline.Executor: it serves spec from the shared
// store when a usable blob is there, and otherwise enqueues it for the
// worker fleet and blocks until a worker delivers the artifact, the spec
// fails, or ctx is cancelled. The engine's caching and deadline
// semantics wrap this call unchanged. Every error it returns is
// permanent: a worker's failure report fails the spec, and only an
// expired lease is re-leased.
func (c *Coordinator) Execute(ctx context.Context, spec pipeline.RunSpec, key string) (*pipeline.Artifact, error) {
	if art := c.storeHit(spec, key); art != nil {
		return art, nil
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding spec for transport: %w", err)
	}
	it := &item{
		spec:     spec,
		specJSON: specJSON,
		key:      key,
		label:    spec.Label(),
		state:    statePending,
		done:     make(chan struct{}),
	}
	c.mu.Lock()
	c.nextID++
	it.id = c.nextID
	c.items[it.id] = it
	c.queue = append(c.queue, it.id)
	c.mu.Unlock()
	c.metrics.Enqueued.Add(1)
	c.emit("dist.enqueued", map[string]string{"spec": it.label, "key": key})

	select {
	case <-it.done:
		return it.art, it.err
	case <-ctx.Done():
		c.abandon(it, ctx.Err())
		return nil, ctx.Err()
	}
}

// storeHit returns the artifact for key from the shared store, or nil
// on a miss. A blob that cannot be read or decoded degrades the sweep
// and reads as a miss, so its spec is leased and the completion
// overwrites it.
func (c *Coordinator) storeHit(spec pipeline.RunSpec, key string) *pipeline.Artifact {
	if c.store == nil {
		return nil
	}
	data, ok, err := c.store.Get(key)
	if ok {
		var art *pipeline.Artifact
		if art, err = pipeline.UnmarshalArtifact(data, spec, key); err == nil {
			c.metrics.StoreFetches.Add(1)
			c.emit("dist.store.hit", map[string]string{"spec": spec.Label(), "key": key})
			return art
		}
	}
	if err != nil {
		c.metrics.StoreDegraded.Add(1)
		c.mu.Lock()
		c.degraded = true
		c.mu.Unlock()
		c.emit("dist.store.degraded", map[string]string{"spec": spec.Label(), "key": key, "err": err.Error()})
	}
	return nil
}

// Finish marks the sweep complete: subsequent lease requests answer
// StatusDone, dismissing pollers. Call it after the last Execute has
// returned.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
}

// abandon fails it on behalf of its submitter (context cancellation). A
// completion that races in first wins; a later one is a duplicate.
func (c *Coordinator) abandon(it *item, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it.state == stateDone || it.state == stateFailed {
		return
	}
	c.giveUp(it, err)
}

// giveUp fails it for the sweep with err. Callers hold mu.
func (c *Coordinator) giveUp(it *item, err error) {
	it.state = stateFailed
	it.err = err
	close(it.done)
}

// requeue returns it to the queue for a fresh primary lease. Callers
// hold mu.
func (c *Coordinator) requeue(it *item) {
	it.state = statePending
	it.primary = lease{}
	it.hedgePending = false
	c.queue = append(c.queue, it.id)
	c.metrics.Requeues.Add(1)
}

// promote makes the live hedge the sole holder once the primary lease
// has ended, instead of re-enqueueing work that is already running on
// another worker. Callers hold mu.
func (c *Coordinator) promote(it *item) {
	c.emit("dist.hedge.promoted", map[string]string{
		"spec": it.label, "key": it.key, "worker": it.hedge.worker,
	})
	it.primary, it.hedge = *it.hedge, nil
}

// expire re-enqueues every leased item whose deadline has passed, then
// flags stragglers for speculative re-lease. The expiry is an event, not
// a failure: the work moves to another worker, unless the spec has
// exhausted its attempt budget.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Collect-then-sort before requeueing: map iteration order must not
	// decide which expired spec re-runs first.
	var expiredIDs []uint64
	for id, it := range c.items {
		if it.state == stateLeased && (it.primary.expired(now) || it.hedge.expired(now)) {
			expiredIDs = append(expiredIDs, id)
		}
	}
	slices.Sort(expiredIDs)
	for _, id := range expiredIDs {
		it := c.items[id]
		if it.hedge.expired(now) {
			c.expireLease(it, it.hedge.worker, "hedge")
			it.hedge = nil
		}
		if !it.primary.expired(now) {
			continue // only the hedge died; the primary lease stands
		}
		c.expireLease(it, it.primary.worker, "primary")
		switch {
		case it.hedge != nil:
			c.promote(it)
		case it.attempts >= c.maxAttempts:
			c.giveUp(it, fmt.Errorf("dist: spec %s: lease expired on attempt %d/%d (last worker %s)",
				it.label, it.attempts, c.maxAttempts, it.primary.worker))
		default:
			c.requeue(it)
		}
	}
	c.speculate(now)
}

// expireLease records one expired lease (primary or hedge) and marks its
// holder lost. Callers hold mu.
func (c *Coordinator) expireLease(it *item, worker, role string) {
	c.metrics.LeaseExpiries.Add(1)
	c.emit("dist.lease.expired", map[string]string{
		"spec": it.label, "key": it.key, "worker": worker, "role": role,
		"attempt": strconv.Itoa(it.attempts),
	})
	if !c.lost[worker] {
		c.lost[worker] = true
		c.metrics.WorkersLost.Add(1)
		c.emit("dist.worker.lost", map[string]string{"worker": worker})
	}
}

// speculate flags stragglers for hedging: any singly-leased item whose
// lease has outlived the speculation threshold is re-queued so an idle
// worker can race the (possibly hung) holder. The running median of
// completed lease durations is the yardstick — with no completions yet
// there is no yardstick, and lease expiry remains the only backstop.
// Callers hold mu.
func (c *Coordinator) speculate(now time.Time) {
	if c.speculateFactor <= 0 || len(c.durations) == 0 {
		return
	}
	med := c.medianDuration()
	threshold := time.Duration(c.speculateFactor * float64(med))
	if threshold <= 0 {
		return
	}
	var ids []uint64
	for id, it := range c.items {
		if it.state == stateLeased && !it.hedgePending && it.hedge == nil && now.Sub(it.primary.start) > threshold {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		it := c.items[id]
		it.hedgePending = true
		c.queue = append(c.queue, id)
		c.metrics.Speculations.Add(1)
		c.emit("dist.speculate", map[string]string{
			"spec": it.label, "key": it.key, "worker": it.primary.worker,
			"lease_age": now.Sub(it.primary.start).String(), "threshold": threshold.String(),
		})
	}
}

// medianDuration returns the running median of completed lease
// durations. Callers hold mu and have checked len(durations) > 0.
func (c *Coordinator) medianDuration() time.Duration {
	sorted := slices.Clone(c.durations)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// touch records a sign of life from worker, clearing any lost mark.
func (c *Coordinator) touch(worker string) {
	if worker == "" {
		return
	}
	if c.lost[worker] {
		delete(c.lost, worker)
		c.emit("dist.worker.recovered", map[string]string{"worker": worker})
	}
}

// grant pops the next grantable queue entry and leases it to worker: a
// pending item as a primary lease, or a hedge-flagged straggler as a
// speculative second lease (never to the straggler's own holder — the
// whole point is a different worker).
func (c *Coordinator) grant(worker string) LeaseResponse {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(worker)
	if worker != "" {
		c.seen[worker] = true
	}
	// Bound the scan to the current queue length: a hedge entry this
	// worker cannot take is pushed back, and without the bound that one
	// entry would spin this loop forever.
	for i, n := 0, len(c.queue); i < n && len(c.queue) > 0; i++ {
		id := c.queue[0]
		c.queue = c.queue[1:]
		it := c.items[id]
		if it == nil {
			continue
		}
		switch {
		case it.state == statePending:
			it.state = stateLeased
			it.primary = lease{worker: worker, deadline: now.Add(c.lease), start: now}
			it.attempts++
			c.metrics.LeasesGranted.Add(1)
			c.emit("dist.lease.granted", map[string]string{
				"spec": it.label, "key": it.key, "worker": worker,
				"attempt": strconv.Itoa(it.attempts),
			})
		case it.state == stateLeased && it.hedgePending:
			if worker == "" || worker == it.primary.worker {
				c.queue = append(c.queue, id) // keep the hedge for another poller
				continue
			}
			it.hedgePending = false
			it.hedge = &lease{worker: worker, deadline: now.Add(c.lease), start: now}
			it.attempts++
			c.metrics.LeasesGranted.Add(1)
			c.emit("dist.lease.hedged", map[string]string{
				"spec": it.label, "key": it.key, "worker": worker,
				"holder": it.primary.worker, "attempt": strconv.Itoa(it.attempts),
			})
		default:
			continue // stale queue entry: done, failed, or abandoned
		}
		return LeaseResponse{
			Status:  StatusLease,
			ID:      it.id,
			Spec:    it.specJSON,
			Key:     it.key,
			LeaseMS: c.lease.Milliseconds(),
		}
	}
	if c.finished {
		return LeaseResponse{Status: StatusDone}
	}
	return LeaseResponse{Status: StatusWait}
}

// detach records that worker has seen StatusDone and is leaving.
func (c *Coordinator) detach(req DetachRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.detached[req.Worker] = true
}

// Drain blocks until every worker that ever polled this coordinator has
// detached or been declared lost, so the coordinator process can exit
// without stranding its fleet in the unreachable-grace backstop. A
// StatusDone answer can be lost, so only the detach counts. Call it
// after Finish, with the lease API still being served. The wait is
// bounded by ctx and timeout: a worker that died while idle (or is too
// old to detach) must not pin the coordinator on its way out.
func (c *Coordinator) Drain(ctx context.Context, timeout time.Duration) {
	deadline := c.clock.Now().Add(timeout)
	for {
		c.mu.Lock()
		waiting := 0
		for w := range c.seen {
			if !c.detached[w] && !c.lost[w] {
				waiting++
			}
		}
		c.mu.Unlock()
		if waiting == 0 || ctx.Err() != nil || !c.clock.Now().Before(deadline) {
			return
		}
		if !sleepCtx(ctx, 25*time.Millisecond) {
			return
		}
	}
}

// heartbeat extends worker's lease on item id — the primary or the
// hedge, whichever the worker holds; Abandon reports that the lease is
// no longer held.
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.Worker)
	l := c.items[req.ID].leaseOf(req.Worker)
	if l == nil {
		return HeartbeatResponse{Abandon: true}
	}
	l.deadline = now.Add(c.lease)
	c.metrics.Heartbeats.Add(1)
	return HeartbeatResponse{}
}

// complete accepts an artifact for item id. Completion is idempotent and
// ownership-blind: the artifact is content-addressed by key and
// bit-identical no matter which worker produced it, so a delivery from
// an expired lease is as good as one from the live holder — whichever
// lands first wins, the rest are duplicates.
func (c *Coordinator) complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	it := c.items[req.ID]
	if it == nil || it.state == stateDone || it.state == stateFailed {
		c.mu.Unlock()
		c.metrics.Duplicates.Add(1)
		return CompleteResponse{Duplicate: true}, nil
	}
	if req.Key != it.key {
		c.mu.Unlock()
		return CompleteResponse{}, &ProtocolError{
			Detail: fmt.Sprintf("complete for item %d: key %.16s does not match lease key %.16s", req.ID, req.Key, it.key),
		}
	}
	spec, key, label := it.spec, it.key, it.label
	c.mu.Unlock()

	// Decode outside the lock: artifacts are large and decoding is pure.
	art, err := pipeline.UnmarshalArtifact(req.Artifact, spec, key)
	if err != nil {
		c.metrics.RejectedWrites.Add(1)
		return CompleteResponse{}, fmt.Errorf("dist: decoding artifact for %s: %w", label, err)
	}

	now := c.clock.Now()
	c.mu.Lock()
	c.touch(req.Worker)
	if it.state == stateDone || it.state == stateFailed {
		c.mu.Unlock()
		c.metrics.Duplicates.Add(1)
		return CompleteResponse{Duplicate: true}, nil
	}
	// A delivery from a live lease adds its duration to the speculation
	// median; a late one from an expired holder adds none. A hedged
	// straggler whose hedge delivered first was rescued: the sweep stays
	// correct (first finish wins, artifacts are content-addressed) but
	// the original holder was hung — a degraded outcome worth an exit
	// code.
	if l := it.leaseOf(req.Worker); l != nil {
		if l == it.hedge {
			c.metrics.Rescues.Add(1)
			c.degraded = true
			c.emit("dist.speculation.rescued", map[string]string{
				"spec": label, "key": key, "hedge": req.Worker, "holder": it.primary.worker,
			})
		}
		c.durations = append(c.durations, now.Sub(l.start))
	}
	it.state = stateDone
	it.art = art
	it.primary = lease{worker: req.Worker}
	it.hedgePending, it.hedge = false, nil
	close(it.done)
	c.metrics.Completions.Add(1)
	c.emit("dist.completed", map[string]string{"spec": label, "key": key, "worker": req.Worker})
	c.mu.Unlock()

	// Feed the accepted artifact into the shared store, after Execute
	// has its answer: the next sweep that needs this key is served
	// without a lease. Best-effort by design.
	if c.store != nil {
		if err := c.store.Put(key, req.Artifact); err != nil {
			c.emit("dist.store.feed.error", map[string]string{"key": key, "err": err.Error()})
		} else {
			c.metrics.StoreBlobs.Add(1)
		}
	}
	return CompleteResponse{}, nil
}

// fail records a worker-side failure for item id and fails the spec for
// the sweep. Stale reports (expired lease, already finished) are
// acknowledged and dropped.
func (c *Coordinator) fail(req FailRequest) FailResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.Worker)
	it := c.items[req.ID]
	switch l := it.leaseOf(req.Worker); {
	case l == nil:
		return FailResponse{Acked: true}
	case l == it.hedge:
		// The hedge failed; the primary lease stands. Hedge failures are
		// advisory — the primary may yet deliver — so drop the hedge and
		// move on.
		c.emit("dist.hedge.failed", map[string]string{
			"spec": it.label, "worker": req.Worker, "error": req.Error,
		})
		it.hedge = nil
		return FailResponse{Acked: true}
	case it.hedge != nil:
		c.promote(it)
		return FailResponse{Acked: true}
	}
	c.emit("dist.failed", map[string]string{
		"spec": it.label, "worker": req.Worker, "error": req.Error,
	})
	c.giveUp(it, fmt.Errorf("dist: spec %s failed on worker %s (attempt %d/%d): %s",
		it.label, req.Worker, it.attempts, c.maxAttempts, req.Error))
	c.metrics.RemoteFailures.Add(1)
	return FailResponse{}
}

// State snapshots the queue for /v1/state and the /distz debug page.
func (c *Coordinator) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{Finished: c.finished}
	for _, it := range c.items {
		is := ItemState{
			ID: it.id, Spec: it.label, Key: it.key, State: it.state,
			Worker: it.primary.worker, Attempts: it.attempts,
		}
		switch {
		case it.hedge != nil:
			is.Hedge = it.hedge.worker
		case it.hedgePending:
			is.Hedge = "pending"
		}
		if it.err != nil {
			is.Err = it.err.Error()
		}
		st.Items = append(st.Items, is)
		switch it.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		case stateDone:
			st.Done++
		case stateFailed:
			st.Failed++
		}
	}
	sort.Slice(st.Items, func(i, j int) bool {
		if st.Items[i].ID != st.Items[j].ID {
			return st.Items[i].ID < st.Items[j].ID
		}
		return st.Items[i].Key < st.Items[j].Key
	})
	return st
}

// emit forwards an event to the flight recorder.
func (c *Coordinator) emit(name string, fields map[string]string) {
	c.ob.Emit(name, fields)
}

// Handler returns the worker-facing HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		writeJSON(w, c.grant(req.Worker))
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		writeJSON(w, c.heartbeat(req))
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		resp, err := c.complete(req)
		if err != nil {
			var pe *ProtocolError
			if errors.As(err, &pe) {
				// A key that contradicts the lease is protocol skew, not a
				// flaky upload: permanent on the worker side.
				writeError(w, http.StatusBadRequest, "", err.Error())
				return
			}
			// A rejected upload is the worker's to retry: the bytes were
			// damaged in transit or the marshal was cut short.
			writeError(w, http.StatusInternalServerError, "", err.Error())
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		writeJSON(w, c.fail(req))
	})
	mux.HandleFunc("POST /v1/detach", func(w http.ResponseWriter, r *http.Request) {
		var req DetachRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		c.detach(req)
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("GET /v1/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.State())
	})
	return mux
}

// DebugHandler returns the /distz human-readable state page for the obs
// debug server.
func (c *Coordinator) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.State())
	})
}

// version accessors let decodeRequest check V without reflection.
func (r LeaseRequest) version() int     { return r.V }
func (r HeartbeatRequest) version() int { return r.V }
func (r CompleteRequest) version() int  { return r.V }
func (r FailRequest) version() int      { return r.V }
func (r DetachRequest) version() int    { return r.V }
