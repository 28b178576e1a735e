package sim

import "fmt"

// Process is a coroutine that lives in simulated time, in the style of a
// CSIM process. A process runs on its own goroutine but control is handed
// off explicitly: whenever the process blocks (Hold, Suspend, or a
// synchronization primitive), the kernel resumes; whenever the kernel fires
// a resume event, the process continues. Exactly one party runs at a time.
type Process struct {
	sim    *Simulator
	name   string
	resume chan struct{}
	yield  chan struct{}
	ended  bool
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
	p := &Process{
		sim:    s,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	s.procs = append(s.procs, p)
	go func() {
		<-p.resume // wait for first activation
		body(p)
		p.ended = true
		p.yield <- struct{}{} // final hand-back to kernel
	}()
	p.activateFn = p.activate
	s.Schedule(0, p.activateFn)
	return p
}

// activate transfers control to the process and blocks until it yields.
// Must only be called from kernel context (inside an event callback).
func (p *Process) activate() {
	if p.ended {
		panic(fmt.Sprintf("sim: activating ended process %q", p.name))
	}
	p.resume <- struct{}{}
	<-p.yield
}

// block yields control back to the kernel and waits to be activated again.
// Must only be called from the process's own goroutine.
func (p *Process) block() {
	p.yield <- struct{}{}
	<-p.resume
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
