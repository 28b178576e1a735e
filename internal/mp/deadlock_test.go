package mp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"commchar/internal/sim"
)

// TestWatchdogDetectsMismatchedSendRecv is the deadlock regression test:
// a two-rank workload with mismatched send/recv tags must terminate via
// the watchdog with the wait-for-graph diagnostic, within the run budget,
// instead of hanging go test.
func TestWatchdogDetectsMismatchedSendRecv(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Watchdog = sim.Watchdog{MaxEvents: 100_000}
	w := NewWorld(cfg)

	start := time.Now()
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 64, nil) // tag 0, buffered: completes
			r.Recv(1, 1)          // rank 1 never sends tag 1
		} else {
			r.Recv(0, 2) // wrong tag: never matches rank 0's send
		}
	})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("mismatched send/recv not detected")
	}
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %T: %v", err, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("detection blew the run budget: %v", elapsed)
	}
	msg := err.Error()
	// The diagnostic must name both blocked ranks, what each waits on,
	// and the wait-for cycle between them.
	for _, want := range []string{
		"rank0", "rank1",
		"message from rank 1 (tag 1)",
		"message from rank 0 (tag 2)",
		"wait-for cycle",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
	if len(de.Cycle) < 3 {
		t.Errorf("cycle too short: %v", de.Cycle)
	}
}

// TestWatchdogBudgetOnLivelock: a rank that computes forever (unbounded
// event generation) is cut off by the event budget rather than spinning.
func TestWatchdogBudgetOnLivelock(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Watchdog = sim.Watchdog{MaxEvents: 10_000}
	w := NewWorld(cfg)
	_, err := w.Run(func(r *Rank) {
		for {
			r.Compute(10)
		}
	})
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if !strings.Contains(de.Reason, "event budget") {
		t.Fatalf("wrong reason: %q", de.Reason)
	}
}

// TestCleanRunUnaffectedByWatchdog: a correct workload runs identically
// with and without budgets installed.
func TestCleanRunUnaffectedByWatchdog(t *testing.T) {
	run := func(wd sim.Watchdog) sim.Time {
		cfg := DefaultConfig(2)
		cfg.Watchdog = wd
		w := NewWorld(cfg)
		makespan, err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1, 0, 128, nil)
				r.Recv(1, 1)
			} else {
				r.Recv(0, 0)
				r.Send(0, 1, 128, nil)
			}
		})
		if err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
		return makespan
	}
	plain := run(sim.Watchdog{})
	budgeted := run(sim.Watchdog{MaxEvents: 1_000_000})
	if plain != budgeted {
		t.Fatalf("watchdog changed the makespan: %d vs %d", plain, budgeted)
	}
}
