// Package mp is a message-passing programming library in the role the MPI
// library on the IBM SP2 plays in the paper's static strategy. Applications
// are SPMD kernels over ranks with blocking point-to-point sends/receives
// and the usual collectives. Execution is native (real Go data movement)
// under a simulated clock driven by the SP2 software-overhead model, and —
// exactly like the IBM utility the paper used — the library traces every
// communication call at the application level. The resulting trace.Trace is
// then replayed through the 2-D mesh simulator for characterization.
package mp

import (
	"fmt"

	"commchar/internal/sim"
	"commchar/internal/sp2"
	"commchar/internal/trace"
)

// Config describes the machine the native run models.
type Config struct {
	Ranks int
	// Cost is the communication-software model (defaults to sp2.Default).
	Cost sp2.CostModel
	// HWLatency is the hardware transit latency of the native machine.
	HWLatency sim.Duration
	// HWPerByte is the hardware per-byte transfer time.
	HWPerByte float64 // ns per byte
	// Collectives selects the collective algorithm family; the zero
	// value is the historical linear family.
	Collectives Algorithm
	// Watchdog bounds the run (events, simulated time); the
	// zero value relies on structural deadlock detection alone, which
	// already terminates any blocked-rank deadlock.
	Watchdog sim.Watchdog
}

// DefaultConfig returns an SP2-like machine with the paper's validated
// software overheads and era-plausible switch hardware (0.5 µs latency,
// ~40 MB/s per-byte cost).
func DefaultConfig(ranks int) Config {
	return Config{
		Ranks:     ranks,
		Cost:      sp2.Default(),
		HWLatency: 500 * sim.Nanosecond,
		HWPerByte: 25,
	}
}

type channel struct {
	src, tag int
}

type inMsg struct {
	bytes   int
	payload any
}

// World is one SPMD execution: the ranks, their mailboxes, and the trace.
type World struct {
	sim   *sim.Simulator
	cfg   Config
	ranks []*Rank
	tr    *trace.Trace
}

// NewWorld creates a world on a fresh simulator.
func NewWorld(cfg Config) *World {
	if cfg.Ranks < 1 {
		panic(fmt.Sprintf("mp: %d ranks", cfg.Ranks))
	}
	if cfg.Cost == (sp2.CostModel{}) {
		cfg.Cost = sp2.Default()
	}
	w := &World{
		sim: sim.New(),
		cfg: cfg,
		tr:  trace.New(cfg.Ranks),
	}
	for i := 0; i < cfg.Ranks; i++ {
		w.ranks = append(w.ranks, &Rank{
			world:   w,
			id:      i,
			arrived: map[channel][]inMsg{},
			waiting: map[channel]sim.Waker{},
		})
	}
	return w
}

// Run executes the SPMD kernel on every rank and returns the simulated
// makespan. A communication deadlock in the application terminates the run
// with the kernel watchdog's wait-for-graph diagnostic (who waits on whom)
// instead of hanging; Config.Watchdog adds progress budgets on top.
func (w *World) Run(kernel func(r *Rank)) (sim.Time, error) {
	for _, r := range w.ranks {
		r := r
		w.sim.Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Process) {
			r.p = p
			kernel(r)
		})
	}
	w.sim.SetWatchdog(w.cfg.Watchdog)
	if err := w.sim.Run(); err != nil {
		return 0, fmt.Errorf("mp: %w", err)
	}
	return w.sim.Now(), nil
}

// Trace returns the application-level communication trace of the run.
func (w *World) Trace() *trace.Trace { return w.tr }

// Rank is one SPMD process's handle: its identity, clock, and mailbox.
type Rank struct {
	world *World
	p     *sim.Process
	id    int

	arrived map[channel][]inMsg
	waiting map[channel]sim.Waker

	lastEvent  sim.Time // completion time of the previous traced event
	collective int      // per-rank collective sequence number
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.world.cfg.Ranks }

// Now returns the rank's local simulated time.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Compute advances the rank's clock by local computation time.
func (r *Rank) Compute(d sim.Duration) { r.p.Hold(d) }

// Send transmits payload (bytes long at the application level) to dst with
// the given tag. The send is buffered: the sender pays its software
// overhead and proceeds without waiting for the receiver.
func (r *Rank) Send(dst, tag, bytes int, payload any) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mp: rank %d sends to %d", r.id, dst))
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("mp: rank %d sends %d bytes", r.id, bytes))
	}
	w := r.world
	compute := sim.Duration(r.p.Now() - r.lastEvent)
	w.tr.Add(r.id, trace.Event{Op: trace.OpSend, Peer: dst, Bytes: bytes, Tag: tag, Compute: compute})

	r.p.Hold(w.cfg.Cost.SendOverhead(bytes))
	transit := w.cfg.HWLatency + sim.Duration(w.cfg.HWPerByte*float64(bytes))
	target := w.ranks[dst]
	ch := channel{src: r.id, tag: tag}
	msg := inMsg{bytes: bytes, payload: payload}
	w.sim.Schedule(transit, func() {
		target.arrived[ch] = append(target.arrived[ch], msg)
		if wk, ok := target.waiting[ch]; ok {
			delete(target.waiting, ch)
			wk.Wake()
		}
	})
	r.lastEvent = r.p.Now()
}

// Recv blocks until a message from src with the given tag arrives, then
// returns its application-level length and payload. Matching is FIFO per
// (src, tag) channel.
func (r *Rank) Recv(src, tag int) (int, any) {
	if src < 0 || src >= r.Size() {
		panic(fmt.Sprintf("mp: rank %d receives from %d", r.id, src))
	}
	w := r.world
	compute := sim.Duration(r.p.Now() - r.lastEvent)
	w.tr.Add(r.id, trace.Event{Op: trace.OpRecv, Peer: src, Tag: tag, Compute: compute})

	ch := channel{src: src, tag: tag}
	for len(r.arrived[ch]) == 0 {
		r.waiting[ch] = sim.WakerFor(r.p)
		r.p.SuspendOn(recvWait{rank: r, src: src, tag: tag})
	}
	m := r.arrived[ch][0]
	r.arrived[ch] = r.arrived[ch][1:]
	r.p.Hold(w.cfg.Cost.RecvOverhead(m.bytes))
	r.lastEvent = r.p.Now()
	return m.bytes, m.payload
}

// recvWait is the sim.Resource a rank blocks on inside Recv. Its holder is
// the peer rank that would have to send, which gives the watchdog's
// wait-for graph the edge it needs to expose recv/recv cycles.
type recvWait struct {
	rank     *Rank
	src, tag int
}

// ResourceName implements sim.Resource.
func (w recvWait) ResourceName() string {
	return fmt.Sprintf("message from rank %d (tag %d)", w.src, w.tag)
}

// Holders implements sim.Resource.
func (w recvWait) Holders() []*sim.Process {
	peer := w.rank.world.ranks[w.src]
	if peer.p == nil {
		return nil
	}
	return []*sim.Process{peer.p}
}
