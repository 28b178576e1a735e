package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestRunCheckedClean(t *testing.T) {
	s := New()
	ran := 0
	s.Spawn("worker", func(p *Process) {
		p.Hold(10)
		ran++
	})
	s.SetWatchdog(Watchdog{MaxEvents: 1000})
	if err := s.Run(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("worker did not run")
	}
}

func TestRunCheckedDetectsFacilityCycle(t *testing.T) {
	s := New()
	a := NewFacility("A")
	b := NewFacility("B")
	// Classic two-lock deadlock: p1 holds A wants B, p2 holds B wants A.
	s.Spawn("p1", func(p *Process) {
		a.Reserve(p)
		p.Hold(10)
		b.Reserve(p)
	})
	s.Spawn("p2", func(p *Process) {
		b.Reserve(p)
		p.Hold(10)
		a.Reserve(p)
	})
	err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Cycle) == 0 {
		t.Fatalf("no wait-for cycle in %v", de)
	}
	msg := de.Error()
	for _, want := range []string{"p1", "p2", "facility A", "facility B", "wait-for cycle"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
	if len(de.Blocked) != 2 {
		t.Errorf("expected 2 blocked processes, got %d", len(de.Blocked))
	}
}

func TestRunCheckedEventBudget(t *testing.T) {
	s := New()
	// A self-perpetuating event chain: livelock the calendar never drains.
	var tick func()
	tick = func() { s.Schedule(1, tick) }
	s.Schedule(0, tick)
	s.SetWatchdog(Watchdog{MaxEvents: 500})
	err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if !strings.Contains(de.Reason, "event budget") {
		t.Fatalf("wrong reason: %q", de.Reason)
	}
	if de.Events < 500 {
		t.Fatalf("stopped after %d events", de.Events)
	}
}

func TestRunCheckedSimTimeHorizon(t *testing.T) {
	s := New()
	var tick func()
	tick = func() { s.Schedule(100, tick) }
	s.Schedule(0, tick)
	s.SetWatchdog(Watchdog{MaxSimTime: 10_000})
	err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if !strings.Contains(de.Reason, "horizon") {
		t.Fatalf("wrong reason: %q", de.Reason)
	}
}

func TestDiagnosticSourcesIncluded(t *testing.T) {
	s := New()
	s.AddDiagnostic("custom", func() string { return "  42 widgets in flight" })
	s.Spawn("stuck", func(p *Process) { p.Suspend() })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "42 widgets") {
		t.Fatalf("diagnostic dump missing: %v", err)
	}
}
