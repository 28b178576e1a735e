package sim

import (
	"fmt"
	"strings"
)

// Watchdog is the progress budget for Run. Any zero field is
// unlimited. The budgets guard against runaway simulations (livelock,
// retransmission storms); true communication deadlocks are detected
// structurally when the calendar drains with processes still blocked.
type Watchdog struct {
	// MaxEvents aborts the run after this many events have fired.
	MaxEvents int64
	// MaxSimTime aborts the run once the clock passes this horizon.
	MaxSimTime Time
}

// SetWatchdog installs the progress budget consulted by Run.
func (s *Simulator) SetWatchdog(w Watchdog) { s.watchdog = w }

// BlockedProcess describes one suspended process in a deadlock report:
// its name, the resource it waits on, and who holds that resource.
type BlockedProcess struct {
	Name     string
	Resource string
	Holders  []string
}

// DeadlockError is the diagnostic produced when Run cannot make
// progress: either a structural deadlock (calendar drained with blocked
// processes) or a watchdog budget breach. It carries the wait-for graph
// snapshot, the first cycle found in it (if any), and any dumps registered
// with AddDiagnostic.
type DeadlockError struct {
	Reason      string // what tripped: "deadlock", "event budget", ...
	Now         Time
	Events      int64
	Pending     int // events left on the calendar at abort time
	Blocked     []BlockedProcess
	Cycle       []string // process names forming a wait-for cycle, if found
	Diagnostics []string // named dumps from AddDiagnostic sources

	// Cause, when non-nil, is the underlying trigger — a cancelled
	// context's error for a run stopped by Run — surfaced
	// through Unwrap so errors.Is(err, context.Canceled) works.
	Cause error
}

// Unwrap exposes the underlying trigger (context cancellation) to the
// errors package; it returns nil for watchdog and structural stops.
func (e *DeadlockError) Unwrap() error { return e.Cause }

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at t=%d after %d events (%d pending)", e.Reason, e.Now, e.Events, e.Pending)
	if len(e.Cycle) > 0 {
		fmt.Fprintf(&b, "\n  wait-for cycle: %s", strings.Join(e.Cycle, " -> "))
	}
	for _, bp := range e.Blocked {
		fmt.Fprintf(&b, "\n  blocked: %s waits on %s", bp.Name, bp.Resource)
		if len(bp.Holders) > 0 {
			fmt.Fprintf(&b, " held by %s", strings.Join(bp.Holders, ", "))
		}
	}
	for _, d := range e.Diagnostics {
		fmt.Fprintf(&b, "\n%s", d)
	}
	return b.String()
}

// blockedSnapshot enumerates the suspended processes in spawn order.
func (s *Simulator) blockedSnapshot() []BlockedProcess {
	var out []BlockedProcess
	for _, p := range s.procs {
		if p.ended || !p.suspended {
			continue
		}
		bp := BlockedProcess{Name: p.name, Resource: "(unnamed)"}
		if r := p.blockedOn; r != nil {
			bp.Resource = r.ResourceName()
			for _, h := range r.Holders() {
				if h != nil && !h.ended {
					bp.Holders = append(bp.Holders, h.name)
				}
			}
		}
		out = append(out, bp)
	}
	return out
}

// findCycle looks for a cycle in the wait-for graph (edges from each
// suspended process to the holders of the resource it waits on) and returns
// the process names along the first cycle found, closed with its first
// node. Traversal order is spawn order, so the report is deterministic.
func (s *Simulator) findCycle() []string {
	edges := make(map[*Process][]*Process)
	for _, p := range s.procs {
		if p.ended || !p.suspended || p.blockedOn == nil {
			continue
		}
		for _, h := range p.blockedOn.Holders() {
			if h != nil && !h.ended {
				edges[p] = append(edges[p], h)
			}
		}
	}
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := make(map[*Process]int)
	var path []*Process
	var dfs func(p *Process) []string
	dfs = func(p *Process) []string {
		color[p] = grey
		path = append(path, p)
		for _, h := range edges[p] {
			switch color[h] {
			case grey:
				// Found a cycle: slice the path from h's position.
				var names []string
				start := 0
				for i, q := range path {
					if q == h {
						start = i
						break
					}
				}
				for _, q := range path[start:] {
					names = append(names, q.name)
				}
				return append(names, h.name)
			case white:
				if c := dfs(h); c != nil {
					return c
				}
			}
		}
		path = path[:len(path)-1]
		color[p] = black
		return nil
	}
	for _, p := range s.procs {
		if color[p] == white && !p.ended && p.suspended {
			if c := dfs(p); c != nil {
				return c
			}
		}
	}
	return nil
}

func (s *Simulator) stallError(reason string) *DeadlockError {
	e := &DeadlockError{
		Reason:  reason,
		Now:     s.now,
		Events:  s.fired,
		Pending: len(s.queue),
		Blocked: s.blockedSnapshot(),
		Cycle:   s.findCycle(),
	}
	for _, d := range s.diagnostics {
		e.Diagnostics = append(e.Diagnostics, fmt.Sprintf("  [%s]\n%s", d.name, d.fn()))
	}
	return e
}
