package dist

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"commchar/internal/obs"
)

// leaseRig drives one coordinator on a frozen fake clock through the
// calls a worker fleet makes (grant, heartbeat, complete, fail) and the
// expiry sweep, and checks only what an operator can see: the flight
// recorder's events, the State snapshot, the counters, and what each
// submitter's Execute returns.
type leaseRig struct {
	t      *testing.T
	ctx    context.Context
	coord  *Coordinator
	clock  *obs.Fake
	ob     *obs.Observer
	seen   int64                 // flight-recorder events already checked
	result map[uint64]chan error // each item's Execute result
}

// A leaseStep is one call on the coordinator, or one check of what it
// shows.
type leaseStep func(r *leaseRig)

// submit enqueues the next item (ids count from 1) through Execute and
// checks its dist.enqueued event.
func submit() leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		id := uint64(len(r.result) + 1)
		res := make(chan error, 1)
		r.result[id] = res
		go func() {
			_, err := r.coord.Execute(r.ctx, testSpec("IS"), testKey(100+int(id)))
			res <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); r.ob.Events.Total() == r.seen; {
			if time.Now().After(deadline) {
				r.t.Fatalf("item %d never enqueued", id)
			}
			time.Sleep(time.Millisecond)
		}
		events("dist.enqueued")(r)
	}
}

// grant polls for work as worker and expects a lease on item id, or, for
// id 0, a wait.
func grant(worker string, id uint64) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		l := r.coord.grant(worker)
		switch {
		case id == 0 && l.Status != StatusWait:
			r.t.Fatalf("grant(%s) = %+v, want wait", worker, l)
		case id != 0 && (l.Status != StatusLease || l.ID != id || l.Key != testKey(100+int(id))):
			r.t.Fatalf("grant(%s) = %s item %d, want a lease on item %d", worker, l.Status, l.ID, id)
		}
	}
}

func heartbeat(worker string, id uint64, wantAbandon bool) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		hb := r.coord.heartbeat(HeartbeatRequest{V: ProtoVersion, Worker: worker, ID: id})
		if hb.Abandon != wantAbandon {
			r.t.Fatalf("heartbeat(%s, %d).Abandon = %v, want %v", worker, id, hb.Abandon, wantAbandon)
		}
	}
}

func fail(worker string, id uint64, wantAcked bool) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		resp := r.coord.fail(FailRequest{V: ProtoVersion, Worker: worker, ID: id, Error: "boom"})
		if resp.Acked != wantAcked {
			r.t.Fatalf("fail(%s, %d).Acked = %v, want %v", worker, id, resp.Acked, wantAcked)
		}
	}
}

func complete(worker string, id uint64, wantDuplicate bool) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		resp, err := r.coord.complete(CompleteRequest{
			V: ProtoVersion, Worker: worker, ID: id, Key: testKey(100 + int(id)),
			Artifact: marshalArtifact(r.t, testArtifact("IS")),
		})
		if err != nil || resp.Duplicate != wantDuplicate {
			r.t.Fatalf("complete(%s, %d) = %+v, %v; want Duplicate %v", worker, id, resp, err, wantDuplicate)
		}
	}
}

func advance(d time.Duration) leaseStep {
	return func(r *leaseRig) { r.clock.Advance(d) }
}

func expire() leaseStep {
	return func(r *leaseRig) { r.coord.expire(r.clock.Now()) }
}

// events checks the events emitted since the last check, each written
// as its name followed by whichever of its worker, role and threshold
// fields it has.
func events(want ...string) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		total := r.ob.Events.Total()
		recent := r.ob.Events.Recent()
		var got []string
		for _, ev := range recent[len(recent)-int(total-r.seen):] {
			s := ev.Name
			for _, k := range []string{"worker", "role", "threshold"} {
				if v, ok := ev.Fields[k]; ok {
					s += " " + k + "=" + v
				}
			}
			got = append(got, s)
		}
		r.seen = total
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			r.t.Fatalf("events:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

// state checks item id in the State snapshot, written as its state
// followed by whichever of worker, hedge, attempts and error it has.
func state(id uint64, want string) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		for _, is := range r.coord.State().Items {
			if is.ID != id {
				continue
			}
			got := is.State
			if is.Worker != "" {
				got += " worker=" + is.Worker
			}
			if is.Hedge != "" {
				got += " hedge=" + is.Hedge
			}
			got += fmt.Sprintf(" attempts=%d", is.Attempts)
			if is.Err != "" {
				got += fmt.Sprintf(" err=%q", is.Err)
			}
			if got != want {
				r.t.Fatalf("item %d state %s, want %s", id, got, want)
			}
			return
		}
		r.t.Fatalf("item %d not in the state snapshot", id)
	}
}

// result waits for item id's Execute to return and checks its error
// text ("" for success).
func result(id uint64, wantErr string) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		select {
		case err := <-r.result[id]:
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != wantErr {
				r.t.Fatalf("item %d Execute error %q, want %q", id, got, wantErr)
			}
		case <-time.After(5 * time.Second):
			r.t.Fatalf("item %d Execute did not return", id)
		}
	}
}

// counters checks the named Metrics counters.
func counters(want map[string]int64) leaseStep {
	return func(r *leaseRig) {
		r.t.Helper()
		m := reflect.ValueOf(r.coord.Metrics()).Elem()
		for name, w := range want {
			if got := m.FieldByName(name).Addr().Interface().(*atomic.Int64).Load(); got != w {
				r.t.Errorf("%s = %d, want %d", name, got, w)
			}
		}
	}
}

// seeded completes item 1 on wA one minute after its grant, so the
// speculation median is one minute and the clock stands at +1m.
func seeded(steps ...leaseStep) []leaseStep {
	return append([]leaseStep{
		submit(), grant("wA", 1), advance(time.Minute), complete("wA", 1, false),
		events("dist.lease.granted worker=wA", "dist.completed worker=wA"),
		result(1, ""),
	}, steps...)
}

// hedged is seeded plus item 2 granted to stall at +1m and hedged onto
// wB at +4m, past the 2×1m threshold.
func hedged(steps ...leaseStep) []leaseStep {
	return seeded(append([]leaseStep{
		submit(), grant("stall", 2), advance(3 * time.Minute), expire(),
		events("dist.lease.granted worker=stall", "dist.speculate worker=stall threshold=2m0s"),
		grant("wB", 2),
		events("dist.lease.hedged worker=wB"),
		state(2, "leased worker=stall hedge=wB attempts=2"),
	}, steps...)...)
}

// TestLeaseTransitions pins every lease transition of the coordinator:
// grants, hedges, heartbeats, expiry, promotion, failure and late
// completion, as seen from outside.
func TestLeaseTransitions(t *testing.T) {
	cases := []struct {
		name        string
		factor      float64
		lease       time.Duration
		maxAttempts int
		steps       []leaseStep
	}{
		{
			name: "hedge expires alone", factor: 2, lease: 10 * time.Minute,
			steps: hedged(
				advance(9*time.Minute), heartbeat("stall", 2, false),
				advance(time.Minute), expire(),
				events(
					"dist.lease.expired worker=wB role=hedge",
					"dist.worker.lost worker=wB",
					"dist.speculate worker=stall threshold=2m0s",
				),
				state(2, "leased worker=stall hedge=pending attempts=2"),
				grant("wC", 2),
				events("dist.lease.hedged worker=wC"),
				state(2, "leased worker=stall hedge=wC attempts=3"),
				counters(map[string]int64{
					"LeaseExpiries": 1, "WorkersLost": 1, "Requeues": 0,
					"Speculations": 2, "Heartbeats": 1, "LeasesGranted": 4,
				}),
			),
		},
		{
			name: "both leases expire in one sweep", factor: 2, lease: 10 * time.Minute,
			steps: hedged(
				advance(10*time.Minute), expire(),
				events(
					"dist.lease.expired worker=wB role=hedge",
					"dist.worker.lost worker=wB",
					"dist.lease.expired worker=stall role=primary",
					"dist.worker.lost worker=stall",
				),
				state(2, "pending attempts=2"),
				counters(map[string]int64{"LeaseExpiries": 2, "WorkersLost": 2, "Requeues": 1}),
				grant("wC", 2),
				events("dist.lease.granted worker=wC"),
				state(2, "leased worker=wC attempts=3"),
			),
		},
		{
			name: "primary fails under a live hedge", factor: 2, lease: time.Hour,
			steps: hedged(
				advance(time.Minute), fail("stall", 2, true),
				events("dist.hedge.promoted worker=wB"),
				state(2, "leased worker=wB attempts=2"),
				heartbeat("stall", 2, true),
				counters(map[string]int64{"Requeues": 0, "RemoteFailures": 0}),
				// The promoted lease started at the hedge's grant (+4m), so
				// this completion at +10m samples 6m: the median becomes 6m
				// and the threshold 12m.
				advance(5*time.Minute), complete("wB", 2, false),
				events("dist.completed worker=wB"),
				result(2, ""),
				counters(map[string]int64{"Rescues": 0}),
				submit(), grant("wA", 3), advance(13*time.Minute), expire(),
				events("dist.lease.granted worker=wA", "dist.speculate worker=wA threshold=12m0s"),
			),
		},
		{
			name: "hedge fails", factor: 2, lease: time.Hour,
			steps: hedged(
				fail("wB", 2, true),
				events("dist.hedge.failed worker=wB"),
				state(2, "leased worker=stall attempts=2"),
				counters(map[string]int64{"Requeues": 0, "RemoteFailures": 0}),
				heartbeat("wB", 2, true),
				heartbeat("stall", 2, false),
				expire(),
				events("dist.speculate worker=stall threshold=2m0s"),
				state(2, "leased worker=stall hedge=pending attempts=2"),
				// stall was granted at +1m and finishes at +5m: a 4m sample,
				// so the median becomes 4m and the threshold 8m.
				advance(time.Minute), complete("stall", 2, false),
				events("dist.completed worker=stall"),
				result(2, ""),
				submit(), grant("wA", 3), advance(9*time.Minute), expire(),
				events("dist.lease.granted worker=wA", "dist.speculate worker=wA threshold=8m0s"),
			),
		},
		{
			name: "hedge completes first", factor: 2, lease: time.Hour,
			steps: hedged(
				// The hedge was granted at +4m and finishes at +6m: a 2m
				// sample, so the median becomes 2m and the threshold 4m.
				advance(2*time.Minute), complete("wB", 2, false),
				events("dist.speculation.rescued", "dist.completed worker=wB"),
				result(2, ""),
				state(2, "done worker=wB attempts=2"),
				heartbeat("stall", 2, true),
				counters(map[string]int64{"Rescues": 1}),
				submit(), grant("wC", 3), advance(5*time.Minute), expire(),
				events("dist.lease.granted worker=wC", "dist.speculate worker=wC threshold=4m0s"),
			),
		},
		{
			name: "hedge heartbeat extends only the hedge", factor: 2, lease: 10 * time.Minute,
			steps: hedged(
				advance(6*time.Minute), heartbeat("wB", 2, false),
				// +11m: the primary's lease (from +1m) is out; the hedge's
				// runs to +20m.
				advance(time.Minute), expire(),
				events(
					"dist.lease.expired worker=stall role=primary",
					"dist.worker.lost worker=stall",
					"dist.hedge.promoted worker=wB",
					"dist.speculate worker=wB threshold=2m0s",
				),
				state(2, "leased worker=wB hedge=pending attempts=2"),
				advance(8*time.Minute), expire(),
				events(),
				advance(time.Minute), expire(),
				events(
					"dist.lease.expired worker=wB role=primary",
					"dist.worker.lost worker=wB",
				),
				state(2, "pending attempts=2"),
				counters(map[string]int64{"LeaseExpiries": 2, "Requeues": 1, "Heartbeats": 1}),
			),
		},
		{
			name: "late completion from an expired holder", factor: 2, lease: 10 * time.Minute,
			steps: seeded(
				submit(), grant("wA", 2),
				advance(10*time.Minute), expire(),
				events(
					"dist.lease.granted worker=wA",
					"dist.lease.expired worker=wA role=primary",
					"dist.worker.lost worker=wA",
				),
				state(2, "pending attempts=1"),
				grant("wB", 2),
				events("dist.lease.granted worker=wB"),
				advance(5*time.Minute), complete("wA", 2, false),
				events("dist.worker.recovered worker=wA", "dist.completed worker=wA"),
				result(2, ""),
				state(2, "done worker=wA attempts=2"),
				heartbeat("wB", 2, true),
				complete("wB", 2, true),
				counters(map[string]int64{"Completions": 2, "Duplicates": 1, "Rescues": 0}),
				// No sample was added: the threshold is still 2×1m.
				submit(), grant("wC", 3), advance(3*time.Minute), expire(),
				events("dist.lease.granted worker=wC", "dist.speculate worker=wC threshold=2m0s"),
			),
		},
		{
			name: "permanent failure", lease: time.Hour,
			steps: []leaseStep{
				submit(), grant("wA", 1), fail("wA", 1, false),
				events("dist.lease.granted worker=wA", "dist.failed worker=wA"),
				state(1, `failed worker=wA attempts=1 err="dist: spec IS failed on worker wA (attempt 1/5): boom"`),
				result(1, "dist: spec IS failed on worker wA (attempt 1/5): boom"),
				counters(map[string]int64{"Requeues": 0, "RemoteFailures": 1}),
				heartbeat("wA", 1, true),
			},
		},
		{
			name: "expiry at MaxAttempts", lease: time.Minute, maxAttempts: 2,
			steps: []leaseStep{
				submit(), grant("wA", 1), advance(time.Minute), expire(),
				events(
					"dist.lease.granted worker=wA",
					"dist.lease.expired worker=wA role=primary",
					"dist.worker.lost worker=wA",
				),
				state(1, "pending attempts=1"),
				grant("wB", 1), advance(time.Minute), expire(),
				events(
					"dist.lease.granted worker=wB",
					"dist.lease.expired worker=wB role=primary",
					"dist.worker.lost worker=wB",
				),
				state(1, `failed worker=wB attempts=2 err="dist: spec IS: lease expired on attempt 2/2 (last worker wB)"`),
				result(1, "dist: spec IS: lease expired on attempt 2/2 (last worker wB)"),
				counters(map[string]int64{"LeaseExpiries": 2, "WorkersLost": 2, "Requeues": 1, "RemoteFailures": 0}),
				grant("wA", 0),
				events("dist.worker.recovered worker=wA"),
			},
		},
		{
			name: "fail and heartbeat from a non-holder", lease: time.Hour,
			steps: []leaseStep{
				submit(), grant("wA", 1),
				events("dist.lease.granted worker=wA"),
				heartbeat("wZ", 1, true), fail("wZ", 1, true),
				heartbeat("wZ", 99, true), fail("wZ", 99, true),
				events(),
				state(1, "leased worker=wA attempts=1"),
				counters(map[string]int64{"Heartbeats": 0, "Requeues": 0, "RemoteFailures": 0}),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel) // abandons the items a case leaves open
			clock := obs.NewFake(time.Unix(1000, 0), 0)
			ob := obs.NewObserver(nil)
			r := &leaseRig{
				t: t, ctx: ctx, clock: clock, ob: ob,
				coord: NewCoordinator(CoordinatorOptions{
					Lease: tc.lease, MaxAttempts: tc.maxAttempts,
					SpeculateFactor: tc.factor, Clock: clock, Obs: ob,
				}),
				result: map[uint64]chan error{},
			}
			for _, step := range tc.steps {
				step(r)
			}
			events()(r) // every event a case causes is one it names
		})
	}
}
