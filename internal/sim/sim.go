// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It plays the role CSIM plays in the paper: simulated
// time, an event calendar, coroutine-style processes, and facilities
// (plain single servers with FCFS queues).
//
// The kernel offers two ways to model an active entity. A Process is a
// coroutine (an iter.Pull coroutine, as a CSIM process is): it suits
// long-lived actors with deep control flow (processors, message-passing
// ranks, traffic generators), at the cost of two coroutine switches per
// blocking call. A plain callback chain on At/Schedule suits
// short-lived, numerous entities: the mesh network's worms, one per
// message, are state machines whose every wait is one calendar callback,
// so no goroutine exists per message.
//
// There is one way to drain the calendar: Run, which polls the context
// installed with SetContext, enforces the Watchdog budgets, and reports a
// run that ends with processes still blocked as a *DeadlockError naming
// who waits on what. Run releases what it spawned: when it stops early,
// by error or panic, every process still blocked unwinds through its
// deferred calls, so no coroutine outlives a failed run. RunUntil and
// Step advance the clock piecemeal.
//
// The kernel is strictly single-threaded from the simulation's point of
// view: exactly one party (either the kernel or one process) executes at
// any instant, and control passes between them by a direct coroutine
// switch, without the goroutine scheduler. A panic in a process body
// comes out of the kernel's Run as a *ProcessPanic. Events at equal times
// fire in scheduling order, so every run with the same inputs is
// bit-for-bit reproducible.
package sim

import (
	"context"
	"fmt"
)

// Time is a point in simulated time. The kernel assigns no unit; by
// convention throughout this repository one tick is one nanosecond.
type Time int64

// Duration is a span of simulated time, in the same ticks as Time.
type Duration int64

// Common durations, following the one-tick-is-one-nanosecond convention.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// event is one calendar entry: fn fires at time at. seq, the scheduling
// order, breaks ties between equal times.
type event struct {
	at  Time
	seq int64
	fn  func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Simulator owns the event calendar and the simulation clock.
type Simulator struct {
	now Time
	// queue is the calendar: a binary min-heap of events under
	// (at, seq), held by value so scheduling allocates nothing once the
	// slice has grown to the run's peak.
	queue   []event
	seq     int64
	running bool

	// procs is the spawn-ordered registry of every process, live or ended,
	// used by the watchdog to enumerate blocked processes deterministically.
	procs []*Process

	fired       int64 // events fired since construction
	watchdog    Watchdog
	diagnostics []diagnosticSource

	// ctx, when set, makes Run cooperatively cancellable: it polls the
	// context periodically and stops early once it is done.
	ctx context.Context

	// progress, when set, is called every progressEvery fired events — an
	// observation seam for live monitoring of long replays. The hook runs
	// between events and receives values only, so it cannot perturb the
	// simulation.
	progress      ProgressFunc
	progressEvery int64
}

// ProgressFunc observes a running simulation: the current simulated time
// and the cumulative events fired so far.
type ProgressFunc func(now Time, fired int64)

// SetProgress installs fn to be called every interval fired events.
// A nil fn or non-positive interval removes the hook.
func (s *Simulator) SetProgress(interval int64, fn ProgressFunc) {
	if fn == nil || interval <= 0 {
		s.progress, s.progressEvery = nil, 0
		return
	}
	s.progress, s.progressEvery = fn, interval
}

type diagnosticSource struct {
	name string
	fn   func() string
}

// EventsFired reports the number of events fired since construction.
func (s *Simulator) EventsFired() int64 { return s.fired }

// AddDiagnostic registers a named dump included in watchdog/deadlock
// reports — e.g. a network registers its in-flight messages and link
// occupancy here.
func (s *Simulator) AddDiagnostic(name string, fn func() string) {
	s.diagnostics = append(s.diagnostics, diagnosticSource{name: name, fn: fn})
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// SetContext installs the cancellation context polled by Run. A cancelled
// context makes Run return a *DeadlockError wrapping the context's error.
func (s *Simulator) SetContext(ctx context.Context) { s.ctx = ctx }

// Interrupted reports whether the installed context has been cancelled,
// wrapping the context's error with the simulation state at the stop. It
// returns nil when no context is installed or the context is still live.
func (s *Simulator) Interrupted() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("sim: interrupted at t=%d after %d events: %w", s.now, s.fired, err)
	}
	return nil
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Schedule arranges for fn to run at Now()+d. A negative delay is an error
// in the caller; the kernel panics to surface the bug immediately.
func (s *Simulator) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	s.At(s.now+Time(d), fn)
}

// At arranges for fn to run at absolute time t, which must not be in the
// simulated past.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, s.now))
	}
	s.queue = append(s.queue, event{at: t, seq: s.seq, fn: fn})
	s.seq++
	// Sift the new entry up to its place.
	q := s.queue
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event of a non-empty calendar.
func (s *Simulator) pop() event {
	q := s.queue
	n := len(q) - 1
	e := q[0]
	q[0] = q[n]
	q[n] = event{} // drop the callback so the collector can reclaim it
	q = q[:n]
	s.queue = q
	// Sift the moved entry down to its place.
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return e
}

// Step fires the next event, advancing the clock. It returns false when the
// calendar is empty. Step is the simulator's cycle loop — every event of
// every characterization run funnels through it — so once the calendar
// has grown it must not allocate; TestScheduleStepAllocFree pins that.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.at
	s.fired++
	if s.progress != nil && s.fired%s.progressEvery == 0 {
		s.progress(s.now, s.fired)
	}
	e.fn()
	return true
}

// Run fires events until the calendar is empty, under the installed
// watchdog and with structural deadlock detection: if the calendar drains
// while processes are still blocked, or a progress budget is exceeded, it
// stops and returns a *DeadlockError describing who waits on what instead
// of hanging or finishing silently. It polls the context installed with
// SetContext; once that is cancelled it stops, leaving the rest of the
// calendar untouched, and returns a *DeadlockError carrying the same
// diagnostics with the context's error as its Cause (so
// errors.Is(err, context.Canceled) holds). A run whose context has ended
// by the time the calendar drains is reported the same way.
//
// Run releases every process that has not ended when it returns, once its
// error is built, or when a panic (a *ProcessPanic included) unwinds
// through it: each blocked body unwinds, running its deferred calls, so a
// failed simulation leaves no coroutine behind. After a clean run every
// process has already ended.
func (s *Simulator) Run() error {
	if s.running {
		panic("sim: Run re-entered")
	}
	s.running = true
	defer func() {
		s.running = false
		s.release()
	}()

	var done <-chan struct{}
	if s.ctx != nil {
		done = s.ctx.Done()
	}
	wd := s.watchdog
	startEvents := s.fired
	for i := int64(0); ; i++ {
		if wd.MaxEvents > 0 && s.fired-startEvents >= wd.MaxEvents {
			return s.stallError(fmt.Sprintf("event budget of %d exceeded", wd.MaxEvents))
		}
		if wd.MaxSimTime > 0 && s.now > wd.MaxSimTime {
			return s.stallError(fmt.Sprintf("simulated-time horizon %d exceeded", wd.MaxSimTime))
		}
		// The cancellation check is amortized: a channel poll is cheap
		// but not free.
		if done != nil && i&255 == 0 {
			select {
			case <-done:
				return s.cancelled()
			default:
			}
		}
		if !s.Step() {
			break
		}
	}
	// Once the context has ended, the mesh gives up every worm it starts
	// (mesh.ErrCancelled), which can drain the calendar before the next
	// poll: such a run was cancelled, whether or not it looks deadlocked
	// or finished.
	if s.ctx != nil && s.ctx.Err() != nil {
		return s.cancelled()
	}
	for _, p := range s.procs {
		if !p.ended && p.suspended {
			return s.stallError("deadlock: calendar drained with blocked processes")
		}
	}
	return nil
}

// cancelled is Run's error once its context has ended: the usual
// diagnostics, with the context's error as the Cause.
func (s *Simulator) cancelled() *DeadlockError {
	err := s.ctx.Err()
	e := s.stallError(fmt.Sprintf("cancelled: %v", err))
	e.Cause = err
	return e
}

// RunUntil fires events with time <= t, then sets the clock to t (if the
// simulation had not already advanced past it).
//
//lint:allow ctxflow drains only events at or before t, bounded by the calendar; cancellable runs go through Run
func (s *Simulator) RunUntil(t Time) {
	for len(s.queue) > 0 {
		// Peek without popping: queue[0] is the minimum.
		if s.queue[0].at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}
