package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"commchar/internal/sim"
	"commchar/internal/trace"
)

func TestProtectConvertsPanics(t *testing.T) {
	err := Protect(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatalf("clean fn returned %v", err)
	}
	sentinel := errors.New("plain")
	if err := Protect(func() error { return sentinel }); err != sentinel {
		t.Fatalf("plain error not passed through: %v", err)
	}
}

// TestProtectRecoversProcessPanic: a panic inside a simulated process's
// body reaches Protect around the kernel's Run as a *PanicError, instead
// of crashing the program from the process's own stack.
func TestProtectRecoversProcessPanic(t *testing.T) {
	s := sim.New()
	s.Spawn("ok", func(p *sim.Process) { p.Hold(10) })
	s.Spawn("bad", func(p *sim.Process) {
		p.Hold(1)
		panic("boom")
	})
	err := Protect(s.Run)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	pp, ok := pe.Value.(*sim.ProcessPanic)
	if !ok || pp.Process != "bad" || pp.Value != "boom" {
		t.Fatalf("panic value = %#v, want the process's panic", pe.Value)
	}
	if Classify(err) != Permanent {
		t.Fatalf("a process panic classified %v, want Permanent", Classify(err))
	}
}

func TestClassify(t *testing.T) {
	budgetTrip := &sim.DeadlockError{Reason: "watchdog: event budget exceeded"}
	deadlock := &sim.DeadlockError{Reason: "deadlock: no runnable process"}
	cancelled := &sim.DeadlockError{Reason: "cancelled: context canceled", Cause: context.Canceled}
	table := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Permanent},
		{"plain", errors.New("x"), Permanent},
		{"canceled", context.Canceled, Permanent},
		{"deadline", context.DeadlineExceeded, Permanent},
		{"wrapped-canceled", fmt.Errorf("run: %w", context.Canceled), Permanent},
		{"panic", Protect(func() error { panic("x") }), Permanent},
		{"marked", MarkTransient(errors.New("flaky")), Transient},
		{"wrapped-marked", fmt.Errorf("outer: %w", MarkTransient(errors.New("flaky"))), Transient},
		// A run is a pure function of its spec: no simulation or trace
		// error clears on a rerun, and nothing retries file I/O.
		{"path-error", &os.PathError{Op: "open", Path: "x", Err: errors.New("io")}, Permanent},
		{"truncated", &trace.TruncatedError{Line: 3}, Permanent},
		{"watchdog-budget", budgetTrip, Permanent},
		{"structural-deadlock", deadlock, Permanent},
		{"cancelled-deadlock", cancelled, Permanent},
		// The network taxonomy (internal/dist RPCs).
		{"op-error", &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("refused")}, Transient},
		{"conn-refused", fmt.Errorf("post: %w", syscall.ECONNREFUSED), Transient},
		{"conn-reset", fmt.Errorf("read: %w", syscall.ECONNRESET), Transient},
		{"broken-pipe", fmt.Errorf("write: %w", syscall.EPIPE), Transient},
		{"net-closed", fmt.Errorf("lease: %w", net.ErrClosed), Transient},
		{"short-body", fmt.Errorf("artifact: %w", io.ErrUnexpectedEOF), Transient},
		{"net-timeout", fmt.Errorf("rpc: %w", &timeoutError{}), Transient},
	}
	for _, tc := range table {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// timeoutError satisfies net.Error with Timeout() true, like a
// *http.httpError from an exhausted client timeout.
type timeoutError struct{}

func (*timeoutError) Error() string   { return "i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// TestBackoffGoldenSchedule pins the exact splitmix64 jitter sequence of
// the default policy for fixed seeds. Any change to these numbers is a
// change to every retry schedule in every recorded run — deliberate
// changes must update the goldens, accidental ones fail here.
func TestBackoffGoldenSchedule(t *testing.T) {
	p := DefaultPolicy()
	golden := map[uint64][]time.Duration{
		0:          {3916403, 7955948, 11134503, 28629116, 55470721, 139185361, 173728718, 202313078},
		42:         {4320446, 9907620, 19684135, 34603985, 59328471, 81262361, 138814148, 216323873},
		0xdeadbeef: {2850450, 9215675, 10986797, 32509460, 51183929, 151258158, 181323758, 158426282},
	}
	for seed, want := range golden {
		for i, w := range want {
			if got := p.Backoff(i+1, seed); got != w {
				t.Errorf("seed %d attempt %d: Backoff = %d, want %d", seed, i+1, int64(got), int64(w))
			}
		}
	}
}

// TestBackoffStableUnderConcurrency: the schedule is pure — many
// goroutines computing the same (seed, attempt) pairs concurrently all
// see the golden values, so a parallel sweep's retry timing cannot
// depend on scheduling. This is what keeps -parallel=1 and -parallel=N
// sweeps byte-identical even when retries fire.
func TestBackoffStableUnderConcurrency(t *testing.T) {
	p := DefaultPolicy()
	want := make([]time.Duration, 16)
	for n := range want {
		want[n] = p.Backoff(n, 7)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for n := range want {
					if got := p.Backoff(n, 7); got != want[n] {
						errs <- fmt.Sprintf("attempt %d: %v != %v", n, got, want[n])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := DefaultPolicy()
	for n := 0; n < 6; n++ {
		a := p.Backoff(n, 42)
		b := p.Backoff(n, 42)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", n, a, b)
		}
		if a < 0 || a >= p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside [0, %v)", n, a, p.MaxDelay)
		}
	}
	// Different seeds decorrelate, at least somewhere in the schedule.
	same := true
	for n := 0; n < 6; n++ {
		if p.Backoff(n, 1) != p.Backoff(n, 2) {
			same = false
		}
	}
	if same {
		t.Fatal("jitter ignores the seed")
	}
	// The schedule grows until the cap.
	if p.Backoff(0, 7) >= p.MaxDelay {
		t.Fatal("first backoff already at cap")
	}
}

func TestDoRetriesTransientOnly(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Multiplier: 2}

	calls := 0
	attempts, err := p.Do(context.Background(), 1, func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 || attempts != 3 {
		t.Fatalf("transient recovery: err=%v calls=%d attempts=%d", err, calls, attempts)
	}

	calls = 0
	perm := errors.New("broken")
	attempts, err = p.Do(context.Background(), 1, func() error { calls++; return perm })
	if !errors.Is(err, perm) || calls != 1 || attempts != 1 {
		t.Fatalf("permanent failure retried: err=%v calls=%d attempts=%d", err, calls, attempts)
	}

	calls = 0
	attempts, err = p.Do(context.Background(), 1, func() error {
		calls++
		return MarkTransient(errors.New("always flaky"))
	})
	if err == nil || calls != 4 || attempts != 4 {
		t.Fatalf("exhaustion: err=%v calls=%d attempts=%d", err, calls, attempts)
	}
}

// TestDoInterruptedKeepsLastAttemptInspectable pins the errtaxonomy
// contract on the "retry interrupted" wrap: both the cancellation and
// the last attempt's error must stay reachable by errors.Is/As. The
// repolint errtaxonomy analyzer found an earlier form stringifying the
// last attempt with %v, which hid its cause from callers triaging an
// interrupted sweep.
func TestDoInterruptedKeepsLastAttemptInspectable(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour, Multiplier: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	dialErr := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	attempts, err := p.Do(ctx, 1, func() error {
		// Cancel after the attempt: Do then enters its backoff sleep and
		// must return immediately with the interruption wrap.
		cancel()
		return dialErr
	})
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled reachable", err)
	}
	var oe *net.OpError
	if !errors.As(err, &oe) || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("last attempt's cause not wrapped: %v", err)
	}
	// The interrupted wrap must still classify as Permanent: the
	// cancellation dominates the transient last attempt.
	if Classify(err) != Permanent {
		t.Fatalf("Classify(%v) = %v, want Permanent", err, Classify(err))
	}
}

func TestDoStopsOnCancelledContext(t *testing.T) {
	p := Policy{MaxAttempts: 1000, BaseDelay: time.Hour, MaxDelay: time.Hour, Multiplier: 1}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = p.Do(ctx, 1, func() error {
			calls++
			return MarkTransient(errors.New("flaky"))
		})
	}()
	// The first failure puts Do into its hour-long backoff sleep; cancelling
	// must cut it short immediately.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times after cancellation", calls)
	}

	// A context cancelled before the first attempt never runs fn.
	calls = 0
	attempts, err := p.Do(ctx, 1, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 || attempts != 0 {
		t.Fatalf("pre-cancelled: err=%v calls=%d attempts=%d", err, calls, attempts)
	}
}

func TestZeroPolicyRunsOnce(t *testing.T) {
	var p Policy
	calls := 0
	attempts, err := p.Do(context.Background(), 1, func() error {
		calls++
		return MarkTransient(errors.New("flaky"))
	})
	if calls != 1 || attempts != 1 || err == nil {
		t.Fatalf("zero policy: calls=%d attempts=%d err=%v", calls, attempts, err)
	}
}
