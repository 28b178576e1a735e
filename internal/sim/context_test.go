package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// livelock installs a self-perpetuating event chain, so the calendar never
// drains and only cancellation (or a watchdog) can stop the run.
func livelock(s *Simulator) {
	var tick func()
	tick = func() { s.Schedule(1, tick) }
	s.Schedule(0, tick)
}

func TestRunStopsOnCancelledContext(t *testing.T) {
	s := New()
	livelock(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	// Run must return instead of spinning forever.
	if err := s.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if err := s.Interrupted(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Interrupted = %v, want context.Canceled", err)
	}
	if s.EventsFired() > 512 {
		t.Fatalf("cancellation took %d events to notice", s.EventsFired())
	}
}

func TestInterruptedNilOnCleanRun(t *testing.T) {
	s := New()
	s.SetContext(context.Background())
	s.Spawn("worker", func(p *Process) { p.Hold(10) })
	if err := s.Run(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := s.Interrupted(); err != nil {
		t.Fatalf("clean run reports %v", err)
	}
}

func TestRunCheckedCancellation(t *testing.T) {
	s := New()
	livelock(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError, got %v", err)
	}
	// The cancellation keeps the simulator diagnostics AND unwraps to the
	// context error, so callers can errors.Is their way to exit codes.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run does not unwrap to context.Canceled: %v", err)
	}
	if !strings.Contains(de.Reason, "cancelled") {
		t.Fatalf("reason = %q", de.Reason)
	}
	if strings.HasSuffix(de.Reason, "exceeded") {
		t.Fatal("cancellation misreported as a watchdog budget trip")
	}
}

// TestRunReportsCancellationWhenCalendarDrains: a context that ends
// between two of Run's polls may let the calendar drain first, as the
// mesh gives up every worm it starts once the run is interrupted. Run
// must still report the cancellation, not a deadlock or a clean finish.
func TestRunReportsCancellationWhenCalendarDrains(t *testing.T) {
	for name, spawn := range map[string]func(s *Simulator){
		"deadlocked": func(s *Simulator) {
			a, b := NewFacility("A"), NewFacility("B")
			s.Spawn("p1", func(p *Process) { a.Reserve(p); p.Hold(10); b.Reserve(p) })
			s.Spawn("p2", func(p *Process) { b.Reserve(p); p.Hold(10); a.Reserve(p) })
		},
		"finished": func(s *Simulator) {
			s.Spawn("worker", func(p *Process) { p.Hold(10) })
		},
	} {
		s := New()
		ctx, cancel := context.WithCancel(context.Background())
		s.SetContext(ctx)
		s.Schedule(5, cancel)
		spawn(s)
		err := s.Run()
		var de *DeadlockError
		if !errors.As(err, &de) || !errors.Is(err, context.Canceled) || !strings.HasPrefix(de.Reason, "cancelled") {
			t.Errorf("%s: Run = %v, want a cancellation", name, err)
		}
	}
}

func TestDeadlockErrorBudgetClassification(t *testing.T) {
	s := New()
	livelock(s)
	s.SetWatchdog(Watchdog{MaxEvents: 500})
	err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError, got %v", err)
	}
	if !strings.HasPrefix(de.Reason, "event budget") {
		t.Fatalf("event-budget trip reported as %q", de.Reason)
	}

	// A structural deadlock is not a budget trip.
	s2 := New()
	a := NewFacility("A")
	b := NewFacility("B")
	s2.Spawn("p1", func(p *Process) { a.Reserve(p); p.Hold(10); b.Reserve(p) })
	s2.Spawn("p2", func(p *Process) { b.Reserve(p); p.Hold(10); a.Reserve(p) })
	err = s2.Run()
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError, got %v", err)
	}
	if !strings.HasPrefix(de.Reason, "deadlock") {
		t.Fatalf("structural deadlock reported as %q", de.Reason)
	}
}
