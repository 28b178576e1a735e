// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It plays the role CSIM plays in the paper: simulated
// time, an event calendar, coroutine-style processes, and facilities
// (servers with FCFS queues and utilization statistics).
//
// The kernel offers two ways to model an active entity. A Process is a
// goroutine: it suits long-lived actors with deep control flow (processors,
// message-passing ranks, traffic generators), at the cost of two goroutine
// handoffs per blocking call. A plain callback chain on At/Schedule suits
// short-lived, numerous entities: the mesh network's worms, one per
// message, are state machines whose every wait is one calendar callback,
// so no goroutine exists per message.
//
// The kernel is strictly single-threaded from the simulation's point of
// view: although processes run on goroutines, exactly one goroutine (either
// the kernel or one process) executes at any instant, handed off through
// channel rendezvous. Events at equal times fire in scheduling order, so
// every run with the same inputs is bit-for-bit reproducible.
package sim

import (
	"container/heap"
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

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at        Time
	seq       int64
	fn        func()
	index     int // heap index, -1 once removed
	cancelled bool
}

// Time reports when the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() { e.cancelled = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Simulator owns the event calendar and the simulation clock.
type Simulator struct {
	now     Time
	queue   eventHeap
	seq     int64
	running bool
	// live counts spawned processes that have not terminated; it is
	// bookkeeping only (Run drains the calendar regardless).
	live int

	// procs is the spawn-ordered registry of every process, live or ended,
	// used by the watchdog to enumerate blocked processes deterministically.
	procs []*Process

	fired       int64 // events fired since construction
	watchdog    Watchdog
	diagnostics []diagnosticSource

	// ctx, when set, makes the run loops cooperatively cancellable: Run and
	// RunChecked poll it periodically and stop early once it is done.
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

// SetContext installs the cancellation context polled by the run loops. A
// cancelled context stops Run (check Interrupted afterwards) and makes
// RunChecked return a diagnostic error wrapping the context's error.
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

// Pending reports the number of events (including cancelled ones not yet
// reaped) remaining on the calendar.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule arranges for fn to run at Now()+d. A negative delay is an error
// in the caller; the kernel panics to surface the bug immediately.
func (s *Simulator) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return s.At(s.now+Time(d), fn)
}

// At arranges for fn to run at absolute time t, which must not be in the
// simulated past.
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, s.now))
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// Step fires the next event, advancing the clock. It returns false when the
// calendar is empty. Step is the simulator's cycle loop — every event of
// every characterization run funnels through it — so it is a hot root:
// nothing it reaches may allocate.
//
//lint:hot
//lint:allow ctxflow pops at most one event per iteration, bounded by the calendar; cancellation is Run's and RunChecked's job
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*Event)
		if e.cancelled {
			continue
		}
		s.now = e.at
		s.fired++
		if s.progress != nil && s.fired%s.progressEvery == 0 {
			s.progress(s.now, s.fired)
		}
		e.fn()
		return true
	}
	return false
}

// Run fires events until the calendar is empty — or, when a context is
// installed, until it is cancelled (poll Interrupted to distinguish the
// two; cancellation leaves the remaining calendar untouched).
func (s *Simulator) Run() {
	if s.running {
		panic("sim: Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	var done <-chan struct{}
	if s.ctx != nil {
		done = s.ctx.Done()
	}
	for i := 0; ; i++ {
		// Cancellation checks are amortized across the cycle loop; one
		// channel poll per 256 events is noise next to the event work.
		if done != nil && i&255 == 0 {
			select {
			case <-done:
				return
			default:
			}
		}
		if !s.Step() {
			return
		}
	}
}

// RunUntil fires events with time <= t, then sets the clock to t (if the
// simulation had not already advanced past it).
//lint:allow ctxflow drains only events at or before t, bounded by the calendar; cancellable runs go through RunChecked
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
