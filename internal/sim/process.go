// iter.Pull needs Go 1.23. This constraint raises the language version of
// this file alone: the module's go line stays at 1.22, because the
// benchmark module (commbench), whose own go line is 1.22, may not depend
// on a module that declares a newer one.

//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// Process is a coroutine that lives in simulated time, in the style of a
// CSIM process. Its body runs as an iter.Pull coroutine, so control is
// handed off by a direct coroutine switch: whenever the process blocks
// (Hold, Suspend, or a synchronization primitive), the kernel resumes;
// whenever the kernel fires a resume event, the process continues. Exactly
// one party runs at a time.
type Process struct {
	sim  *Simulator
	name string
	// next runs the body until it next blocks or ends; yield, called by
	// the body, switches back to the kernel's next call. stop unwinds a
	// body that is blocked, so its coroutine ends (see Simulator.release).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	ended bool
	// activateFn is p.activate, bound once so that every resume event
	// the process schedules reuses it instead of allocating a closure.
	activateFn func()

	// Blocking bookkeeping for the watchdog's wait-for graph. A process is
	// "suspended" between SuspendOn and the wake that resumes it; blockedOn
	// (possibly nil) names what it waits for.
	suspended bool
	blockedOn Resource
}

// Resource is anything a process can block on that the watchdog should be
// able to describe: a facility, a message channel. Holders returns
// the processes that currently prevent the waiter from proceeding (the
// wait-for graph edges); it may be empty when no specific process holds the
// resource.
type Resource interface {
	ResourceName() string
	Holders() []*Process
}

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.sim.now }

// Spawn creates a process whose body starts executing at the current
// simulated time (after currently scheduled same-time events).
func (s *Simulator) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{sim: s, name: name}
	s.procs = append(s.procs, p)
	// A panic in body comes back out of the kernel's next call, so it
	// unwinds through Run like any kernel panic, carrying the body's
	// stack, which that unwinding would otherwise lose. A body unwound by
	// stop just ends.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.ended = true
			if r := recover(); r != nil && r != errStopped {
				panic(&ProcessPanic{Process: name, Value: r, Stack: debug.Stack()})
			}
		}()
		body(p)
	})
	p.activateFn = p.activate
	s.Schedule(0, p.activateFn)
	return p
}

// ProcessPanic is the value a panicking process body re-panics with out of
// the kernel: which process failed, its panic value, and its own stack.
type ProcessPanic struct {
	Process string
	Value   any
	Stack   []byte
}

func (e *ProcessPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Process, e.Value)
}

// errStopped is the panic value that unwinds a body whose process was
// stopped while blocked; Spawn's wrapper recovers it.
var errStopped = errors.New("sim: process stopped")

// release stops every process that has not ended: each blocked body
// unwinds from the call it is blocked in, running its deferred calls, and
// its coroutine exits. Nothing can resume these processes once Run has
// given up on the simulation, and a parked coroutine would otherwise keep
// the whole simulation reachable for the life of the program.
func (s *Simulator) release() {
	for _, p := range s.procs {
		if !p.ended {
			p.stop()
			p.ended = true // a process never activated has no body to unwind
		}
	}
}

// activate transfers control to the process and returns when it blocks or
// ends. Must only be called from kernel context (inside an event callback).
func (p *Process) activate() {
	if p.ended {
		panic(fmt.Sprintf("sim: activating ended process %q", p.name))
	}
	p.next()
}

// block yields control back to the kernel and returns when the process is
// activated again, or unwinds the body if the process was stopped instead.
// Must only be called from the process's own body.
func (p *Process) block() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Hold advances the process's local view of time by d: the process sleeps
// and resumes at Now()+d.
func (p *Process) Hold(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q holds negative duration %d", p.name, d))
	}
	if d == 0 {
		return
	}
	p.sim.Schedule(d, p.activateFn)
	p.block()
}

// Suspend parks the process until another party calls Wake.
func (p *Process) Suspend() {
	p.SuspendOn(nil)
}

// SuspendOn parks the process until another party calls Wake, recording the
// resource it waits for so a deadlock diagnostic can name it. r may be nil.
func (p *Process) SuspendOn(r Resource) {
	p.suspended = true
	p.blockedOn = r
	p.block()
	p.suspended = false
	p.blockedOn = nil
}

// Waker resumes a suspended process at the current simulated time. It is
// safe to schedule from kernel context or from another process.
type Waker struct {
	p *Process
}

// WakerFor returns a Waker that, when fired, resumes p from Suspend.
func WakerFor(p *Process) Waker { return Waker{p: p} }

// Wake schedules the suspended process to resume now (after same-time
// events already on the calendar).
func (w Waker) Wake() {
	w.p.sim.Schedule(0, w.p.activateFn)
}
