package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestRunReleasesProcesses: a run that stops early (structural deadlock,
// event budget, cancellation, or a panicking process) leaves none of its
// processes behind. Each blocked body unwinds, runs its deferred calls,
// and its coroutine exits, so the goroutine count stays flat over many
// failed runs.
func TestRunReleasesProcesses(t *testing.T) {
	// blocked spawns two processes that park forever: one suspended, one
	// holding a facility that the first never gets. Each counts its
	// unwinding in *released; the holder's deferred Release wakes the
	// waiter, and the waiter's deferred Hold blocks once more on the way
	// out.
	blocked := func(s *Simulator, released *int) {
		f := NewFacility("f")
		s.Spawn("holder", func(p *Process) {
			defer func() { *released++ }()
			f.Reserve(p)
			defer f.Release(p)
			p.Suspend()
		})
		s.Spawn("waiter", func(p *Process) {
			defer func() { *released++ }()
			defer p.Hold(1)
			f.Reserve(p)
		})
	}
	cases := []struct {
		name string
		// run builds and runs one simulation whose processes all unwind,
		// and returns how many process bodies it started.
		run func(t *testing.T, released *int) int
	}{
		{"deadlock", func(t *testing.T, released *int) int {
			s := New()
			blocked(s, released)
			var de *DeadlockError
			if err := s.Run(); !errors.As(err, &de) || !strings.HasPrefix(de.Reason, "deadlock") {
				t.Fatalf("Run = %v, want a structural deadlock", err)
			}
			return 2
		}},
		{"event budget", func(t *testing.T, released *int) int {
			s := New()
			blocked(s, released)
			s.Spawn("spinner", func(p *Process) {
				defer func() { *released++ }()
				for {
					p.Hold(1)
				}
			})
			s.SetWatchdog(Watchdog{MaxEvents: 100})
			var de *DeadlockError
			if err := s.Run(); !errors.As(err, &de) || !strings.HasPrefix(de.Reason, "event budget") {
				t.Fatalf("Run = %v, want a tripped event budget", err)
			}
			return 3
		}},
		{"cancelled", func(t *testing.T, released *int) int {
			s := New()
			blocked(s, released)
			s.Spawn("spinner", func(p *Process) {
				defer func() { *released++ }()
				for {
					p.Hold(1)
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			s.Schedule(10, cancel)
			s.SetContext(ctx)
			if err := s.Run(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
			return 3
		}},
		{"panic", func(t *testing.T, released *int) int {
			s := New()
			blocked(s, released)
			s.Spawn("bad", func(p *Process) {
				defer func() { *released++ }()
				p.Hold(5)
				panic("boom")
			})
			var got any
			func() {
				defer func() { got = recover() }()
				s.Run()
			}()
			if pp, ok := got.(*ProcessPanic); !ok || pp.Process != "bad" || pp.Value != "boom" {
				t.Fatalf("recovered %v, want the *ProcessPanic of bad", got)
			}
			return 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			released := 0
			tc.run(t, &released) // warm up whatever the runtime allocates once
			released = 0
			before := runtime.NumGoroutine()
			started := 0
			for i := 0; i < 50; i++ {
				started += tc.run(t, &released)
			}
			// A leaked process is one parked coroutine, one goroutine: 50
			// runs of this case would leak 100 or more.
			if after := runtime.NumGoroutine(); after > before+2 {
				t.Fatalf("goroutines %d -> %d over 50 runs: stopped runs leak their processes", before, after)
			}
			if released != started {
				t.Fatalf("%d of %d process bodies ran their deferred calls", released, started)
			}
		})
	}
}
