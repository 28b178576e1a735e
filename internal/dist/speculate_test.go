package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"commchar/internal/obs"
	"commchar/internal/pipeline"
)

// specClock returns a frozen fake clock and a coordinator wired to it,
// with speculation enabled at the given factor.
func specCoordinator(t *testing.T, factor float64, lease time.Duration) (*Coordinator, *obs.Fake, *obs.Observer) {
	t.Helper()
	clock := obs.NewFake(time.Unix(1000, 0), 0)
	ob := obs.NewObserver(nil)
	coord := NewCoordinator(CoordinatorOptions{
		Lease: lease, SpeculateFactor: factor, Clock: clock, Obs: ob,
	})
	return coord, clock, ob
}

// enqueue starts Execute in a goroutine and waits until the item is
// grantable, returning the result channel.
func enqueue(t *testing.T, coord *Coordinator, spec pipeline.RunSpec, key string) chan error {
	t.Helper()
	resCh := make(chan error, 1)
	go func() {
		_, err := coord.Execute(context.Background(), spec, key)
		resCh <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		coord.mu.Lock()
		queued := len(coord.queue) > 0
		coord.mu.Unlock()
		if queued {
			return resCh
		}
		if time.Now().After(deadline) {
			t.Fatal("spec never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpeculativeRescueBeforeExpiry is the acceptance test for
// speculative re-lease: a deliberately stalled worker — alive and
// heartbeating, so lease expiry never fires — is hedged once its stage
// outlives the speculation threshold, and the hedge's completion rescues
// the spec strictly before lease expiry would have re-enqueued it
// (LeaseExpiries and Requeues both still zero at rescue time).
func TestSpeculativeRescueBeforeExpiry(t *testing.T) {
	coord, clock, ob := specCoordinator(t, 3, 10*time.Minute)

	// Seed the stage-duration median: a fast spec completes in 1 minute.
	fastKey := testKey(50)
	fastRes := enqueue(t, coord, testSpec("IS"), fastKey)
	if lease := coord.grant("wA"); lease.Status != StatusLease {
		t.Fatalf("fast lease status %q", lease.Status)
	}
	clock.Advance(time.Minute)
	if _, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wA", ID: 1, Key: fastKey,
		Artifact: marshalArtifact(t, testArtifact("IS")),
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-fastRes; err != nil {
		t.Fatal(err)
	}

	// The straggler: leased to a worker that heartbeats (the lease never
	// expires) but makes no stage progress.
	slowKey := testKey(51)
	slowRes := enqueue(t, coord, testSpec("MG"), slowKey)
	slow := coord.grant("stall")
	if slow.Status != StatusLease {
		t.Fatalf("straggler lease status %q", slow.Status)
	}

	// 4 minutes pass — past the 3×median = 3m threshold, nowhere near the
	// 10m lease — with the holder dutifully heartbeating.
	clock.Advance(4 * time.Minute)
	if hb := coord.heartbeat(HeartbeatRequest{V: ProtoVersion, Worker: "stall", ID: slow.ID}); hb.Abandon {
		t.Fatal("live straggler told to abandon")
	}
	coord.expire(clock.Now())

	m := coord.Metrics()
	if m.Speculations.Load() != 1 {
		t.Fatalf("speculations = %d, want 1", m.Speculations.Load())
	}
	if m.LeaseExpiries.Load() != 0 || m.Requeues.Load() != 0 {
		t.Fatalf("speculation leaked into expiry path: expiries=%d requeues=%d",
			m.LeaseExpiries.Load(), m.Requeues.Load())
	}

	// The straggler's own holder cannot take the hedge — that would just
	// double-book the hung worker.
	if l := coord.grant("stall"); l.Status != StatusWait {
		t.Fatalf("holder was granted its own hedge: %+v", l)
	}
	hedge := coord.grant("wB")
	if hedge.Status != StatusLease || hedge.ID != slow.ID || hedge.Key != slowKey {
		t.Fatalf("hedge grant = %+v, want item %d", hedge, slow.ID)
	}
	if st := coord.State(); st.Items[1].Hedge != "wB" {
		t.Fatalf("state does not show the hedge holder: %+v", st.Items[1])
	}

	// The hedge delivers first: the spec is rescued while the original
	// lease is still live — strictly before expiry would have acted.
	clock.Advance(30 * time.Second)
	resp, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wB", ID: hedge.ID, Key: slowKey,
		Artifact: marshalArtifact(t, testArtifact("MG")),
	})
	if err != nil || resp.Duplicate {
		t.Fatalf("hedge completion: resp=%+v err=%v", resp, err)
	}
	if err := <-slowRes; err != nil {
		t.Fatalf("rescued spec failed: %v", err)
	}
	if m.Rescues.Load() != 1 {
		t.Fatalf("rescues = %d, want 1", m.Rescues.Load())
	}
	if m.LeaseExpiries.Load() != 0 || m.Requeues.Load() != 0 {
		t.Fatalf("rescue arrived after the expiry path acted: expiries=%d requeues=%d",
			m.LeaseExpiries.Load(), m.Requeues.Load())
	}
	if !coord.Degraded() {
		t.Fatal("a rescued straggler must mark the sweep degraded")
	}
	var de *DegradedError
	if err := coord.DegradedError(); !errors.As(err, &de) || de.Rescues != 1 {
		t.Fatalf("DegradedError() = %v, want one rescue", err)
	}
	var sawRescue bool
	for _, ev := range ob.Events.Recent() {
		if ev.Name == "dist.speculation.rescued" {
			sawRescue = true
		}
	}
	if !sawRescue {
		t.Fatal("dist.speculation.rescued event not recorded")
	}

	// The stalled original finally answers: an idempotent duplicate.
	if resp, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "stall", ID: slow.ID, Key: slowKey,
		Artifact: marshalArtifact(t, testArtifact("MG")),
	}); err != nil || !resp.Duplicate {
		t.Fatalf("original's late completion: resp=%+v err=%v", resp, err)
	}
}

// TestSpeculationDisabledByDefault: with the factor at its zero default
// no straggler is ever hedged, no matter how stale its stage.
func TestSpeculationDisabledByDefault(t *testing.T) {
	coord, clock, _ := specCoordinator(t, 0, time.Hour)

	key := testKey(55)
	resCh := enqueue(t, coord, testSpec("IS"), key)
	if lease := coord.grant("wA"); lease.Status != StatusLease {
		t.Fatalf("lease status %q", lease.Status)
	}
	clock.Advance(30 * time.Minute)
	coord.expire(clock.Now())
	if n := coord.Metrics().Speculations.Load(); n != 0 {
		t.Fatalf("speculations = %d with factor 0", n)
	}
	if _, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wA", ID: 1, Key: key,
		Artifact: marshalArtifact(t, testArtifact("IS")),
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
	if coord.Degraded() || coord.DegradedError() != nil {
		t.Fatal("clean sweep marked degraded")
	}
}

// TestHedgePromotedWhenPrimaryExpires: the primary dies under a live
// hedge; the same expiry sweep promotes the hedge to sole holder instead
// of re-enqueueing work that is already running, and the promoted
// worker's completion is not counted as a rescue (it is the rightful
// holder by then).
func TestHedgePromotedWhenPrimaryExpires(t *testing.T) {
	coord, clock, ob := specCoordinator(t, 2, 10*time.Minute)

	// Seed the median with a 1-minute completion.
	fastKey := testKey(56)
	fastRes := enqueue(t, coord, testSpec("IS"), fastKey)
	coord.grant("wA")
	clock.Advance(time.Minute)
	if _, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wA", ID: 1, Key: fastKey,
		Artifact: marshalArtifact(t, testArtifact("IS")),
	}); err != nil {
		t.Fatal(err)
	}
	<-fastRes

	slowKey := testKey(57)
	slowRes := enqueue(t, coord, testSpec("MG"), slowKey)
	slow := coord.grant("stall")
	clock.Advance(3 * time.Minute) // past 2×1m threshold
	coord.expire(clock.Now())
	hedge := coord.grant("wB")
	if hedge.Status != StatusLease || hedge.ID != slow.ID {
		t.Fatalf("hedge grant = %+v", hedge)
	}

	// The primary goes fully silent: its lease (granted at t+1m, last
	// touched then) expires while the hedge — granted at t+4m — is live.
	clock.Advance(8 * time.Minute)
	if hb := coord.heartbeat(HeartbeatRequest{V: ProtoVersion, Worker: "wB", ID: hedge.ID}); hb.Abandon {
		t.Fatal("live hedge told to abandon")
	}
	coord.expire(clock.Now())

	m := coord.Metrics()
	if m.LeaseExpiries.Load() != 1 {
		t.Fatalf("primary expiry not recorded: %d", m.LeaseExpiries.Load())
	}
	if m.Requeues.Load() != 0 {
		t.Fatal("promotion must not re-enqueue work that is already running")
	}
	var sawPromoted bool
	for _, ev := range ob.Events.Recent() {
		if ev.Name == "dist.hedge.promoted" {
			sawPromoted = true
		}
	}
	if !sawPromoted {
		t.Fatal("dist.hedge.promoted event not recorded")
	}

	// The promoted worker completes as the ordinary holder: no rescue.
	if _, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wB", ID: slow.ID, Key: slowKey,
		Artifact: marshalArtifact(t, testArtifact("MG")),
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-slowRes; err != nil {
		t.Fatal(err)
	}
	if m.Rescues.Load() != 0 {
		t.Fatal("promoted holder's completion counted as a rescue")
	}

	// The stalled original's heartbeat after losing the item: abandon.
	if hb := coord.heartbeat(HeartbeatRequest{V: ProtoVersion, Worker: "stall", ID: slow.ID}); !hb.Abandon {
		t.Fatal("dispossessed worker's heartbeat not told to abandon")
	}
}

// TestHeartbeatAfterCompletionAbandons: a heartbeat landing after the
// item completed — the classic slow-network straggler — is told to
// abandon and extends nothing.
func TestHeartbeatAfterCompletionAbandons(t *testing.T) {
	coord, clock, _ := specCoordinator(t, 0, time.Minute)

	key := testKey(58)
	resCh := enqueue(t, coord, testSpec("IS"), key)
	lease := coord.grant("wA")
	clock.Advance(time.Second)
	if _, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wA", ID: lease.ID, Key: key,
		Artifact: marshalArtifact(t, testArtifact("IS")),
	}); err != nil {
		t.Fatal(err)
	}
	<-resCh

	before := coord.Metrics().Heartbeats.Load()
	if hb := coord.heartbeat(HeartbeatRequest{V: ProtoVersion, Worker: "wA", ID: lease.ID}); !hb.Abandon {
		t.Fatal("post-completion heartbeat not told to abandon")
	}
	if got := coord.Metrics().Heartbeats.Load(); got != before {
		t.Fatalf("post-completion heartbeat counted as an extension (%d -> %d)", before, got)
	}
}

// TestDoubleDismissalOfDrainedWorker: a worker that polls StatusDone
// twice after Finish is dismissed idempotently, its detach counts once
// however often it arrives, and Drain returns immediately once every
// seen worker has detached — even on a frozen clock, where only the
// empty wait set can end the loop.
func TestDoubleDismissalOfDrainedWorker(t *testing.T) {
	coord, _, _ := specCoordinator(t, 0, time.Minute)

	if l := coord.grant("w1"); l.Status != StatusWait {
		t.Fatalf("pre-finish poll status %q", l.Status)
	}
	coord.Finish()
	if l := coord.grant("w1"); l.Status != StatusDone {
		t.Fatalf("post-finish poll status %q", l.Status)
	}
	// The second dismissal must be as clean as the first.
	if l := coord.grant("w1"); l.Status != StatusDone {
		t.Fatalf("second post-finish poll status %q", l.Status)
	}
	coord.detach(DetachRequest{V: ProtoVersion, Worker: "w1"})
	coord.detach(DetachRequest{V: ProtoVersion, Worker: "w1"})
	coord.mu.Lock()
	detached := len(coord.detached)
	coord.mu.Unlock()
	if detached != 1 {
		t.Fatalf("detached set has %d entries, want 1", detached)
	}

	done := make(chan struct{})
	go func() {
		coord.Drain(context.Background(), time.Hour)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return with every worker detached")
	}
}

// TestHedgeWinnerAndOriginalInSameExpirySweep: both the hedge's win and
// the original's late answer land around one expiry sweep; the sweep
// must not expire, requeue, or double-complete a finished item.
func TestHedgeWinnerAndOriginalInSameExpirySweep(t *testing.T) {
	coord, clock, _ := specCoordinator(t, 2, 5*time.Minute)

	fastKey := testKey(59)
	fastRes := enqueue(t, coord, testSpec("IS"), fastKey)
	coord.grant("wA")
	clock.Advance(time.Minute)
	if _, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wA", ID: 1, Key: fastKey,
		Artifact: marshalArtifact(t, testArtifact("IS")),
	}); err != nil {
		t.Fatal(err)
	}
	<-fastRes

	slowKey := testKey(60)
	slowRes := enqueue(t, coord, testSpec("MG"), slowKey)
	slow := coord.grant("stall")
	clock.Advance(150 * time.Second) // past 2×1m, inside the 5m lease
	coord.expire(clock.Now())
	hedge := coord.grant("wB")
	if hedge.Status != StatusLease {
		t.Fatalf("hedge grant = %+v", hedge)
	}

	// Hedge wins; original answers immediately after; then the expiry
	// sweep fires at a time where both stale deadlines have passed.
	if resp, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "wB", ID: hedge.ID, Key: slowKey,
		Artifact: marshalArtifact(t, testArtifact("MG")),
	}); err != nil || resp.Duplicate {
		t.Fatalf("hedge completion: %+v %v", resp, err)
	}
	if resp, err := coord.complete(CompleteRequest{
		V: ProtoVersion, Worker: "stall", ID: slow.ID, Key: slowKey,
		Artifact: marshalArtifact(t, testArtifact("MG")),
	}); err != nil || !resp.Duplicate {
		t.Fatalf("original completion not a duplicate: %+v %v", resp, err)
	}
	if err := <-slowRes; err != nil {
		t.Fatal(err)
	}

	m := coord.Metrics()
	expiriesBefore, requeuesBefore := m.LeaseExpiries.Load(), m.Requeues.Load()
	clock.Advance(time.Hour)
	coord.expire(clock.Now())
	if m.LeaseExpiries.Load() != expiriesBefore || m.Requeues.Load() != requeuesBefore {
		t.Fatalf("expiry sweep acted on a finished item: expiries %d->%d requeues %d->%d",
			expiriesBefore, m.LeaseExpiries.Load(), requeuesBefore, m.Requeues.Load())
	}
	if m.Completions.Load() != 2 || m.Duplicates.Load() != 1 || m.Rescues.Load() != 1 {
		t.Fatalf("completions=%d duplicates=%d rescues=%d",
			m.Completions.Load(), m.Duplicates.Load(), m.Rescues.Load())
	}
	st := coord.State()
	if st.Done != 2 || st.Pending+st.Leased+st.Failed != 0 {
		t.Fatalf("state = %+v", st)
	}
}
