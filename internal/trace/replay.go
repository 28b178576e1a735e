package trace

import (
	"fmt"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// CostModel charges communication-software overheads during replay, in the
// role of the validated IBM SP2 model of the paper.
type CostModel interface {
	// SendOverhead is the software time on the sender before the message
	// enters the network.
	SendOverhead(bytes int) sim.Duration
	// RecvOverhead is the software time on the receiver after the message
	// leaves the network.
	RecvOverhead(bytes int) sim.Duration
}

// ZeroCost charges no software overhead (raw network replay).
type ZeroCost struct{}

// SendOverhead implements CostModel.
func (ZeroCost) SendOverhead(int) sim.Duration { return 0 }

// RecvOverhead implements CostModel.
func (ZeroCost) RecvOverhead(int) sim.Duration { return 0 }

// Replay drives the trace through the network. Each rank becomes a process
// on the network's simulator that re-executes its event sequence: compute
// deltas are slept, sends inject real messages (after the sender-side
// software overhead), and receives block until the matching message's tail
// arrives (plus the receiver-side overhead). Rank i is placed on mesh node
// i. The caller runs the simulator; the network log then contains the
// replayed traffic.
//
// Matching is FIFO per (source, tag) channel, the usual message-passing
// semantics.
func Replay(s *sim.Simulator, net *mesh.Network, t *Trace, cost CostModel) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if ep := net.Topology().Endpoints(); t.Ranks > ep {
		return fmt.Errorf("trace: %d ranks exceed %d mesh nodes", t.Ranks, ep)
	}
	if cost == nil {
		cost = ZeroCost{}
	}

	rp := &replayer{ranks: make([]replayRank, t.Ranks), procs: make([]*sim.Process, t.Ranks)}
	for rank := 0; rank < t.Ranks; rank++ {
		rank := rank
		seq := t.Events[rank]
		r := &rp.ranks[rank]
		r.rp = rp
		r.arrived = map[replayChannel]*byteQueue{}
		s.Spawn(fmt.Sprintf("replay-rank%d", rank), func(p *sim.Process) {
			rp.procs[rank] = p
			r.wake = sim.WakerFor(p)
			for _, e := range seq {
				p.Hold(e.Compute)
				switch e.Op {
				case OpSend:
					p.Hold(cost.SendOverhead(e.Bytes))
					net.Inject(mesh.Message{
						Src:    rank,
						Dst:    e.Peer,
						Bytes:  e.Bytes,
						Inject: p.Now(),
					}, rp.send(e.Peer, replayChannel{src: rank, tag: e.Tag}))
				case OpRecv:
					p.Hold(cost.RecvOverhead(r.recv(p, replayChannel{src: e.Peer, tag: e.Tag})))
				}
			}
		})
	}
	return nil
}

// replayChannel is the FIFO matching key of the replay engine.
type replayChannel struct{ src, tag int }

// replayer is the state of one Replay: the ranks, and free lists of the
// per-message records, so the message path allocates only while the
// number of messages in flight or waiting grows past its earlier peak.
type replayer struct {
	ranks  []replayRank
	procs  []*sim.Process
	sends  []*replaySend
	queues []*byteQueue
}

// send returns the delivery callback of a message to rank dst on ch.
func (rp *replayer) send(dst int, ch replayChannel) func(mesh.Delivery) {
	var snd *replaySend
	if n := len(rp.sends); n > 0 {
		snd, rp.sends = rp.sends[n-1], rp.sends[:n-1]
	} else {
		snd = &replaySend{rp: rp}
		snd.deliveredFn = snd.delivered
	}
	snd.to, snd.ch = &rp.ranks[dst], ch
	return snd.deliveredFn
}

// replaySend is one in-flight message's delivery record, with its
// delivery callback bound once per record rather than per message.
type replaySend struct {
	rp          *replayer
	to          *replayRank
	ch          replayChannel
	deliveredFn func(mesh.Delivery)
}

func (snd *replaySend) delivered(d mesh.Delivery) {
	rp, r, ch := snd.rp, snd.to, snd.ch
	rp.sends = append(rp.sends, snd)
	if d.Status != mesh.StatusDelivered {
		// The network gave up on the message (fault injection); the
		// receiver stays blocked and the watchdog reports the stall.
		return
	}
	q, ok := r.arrived[ch]
	if !ok {
		if n := len(rp.queues); n > 0 {
			q, rp.queues = rp.queues[n-1], rp.queues[:n-1]
		} else {
			q = &byteQueue{}
		}
		r.arrived[ch] = q
	}
	q.push(d.Bytes)
	if r.waiting && r.awaited == ch {
		r.waiting = false
		r.wake.Wake()
	}
}

// replayRank is one replayed rank's inbox: the byte counts delivered and
// not yet received, per channel that has any, and the receive it is
// blocked in, if any (at most one, since a rank's events are sequential).
// It is also the sim.Resource the rank blocks on: its holder is the
// awaited sender's replay process, which gives watchdog reports their
// wait-for edges.
type replayRank struct {
	rp      *replayer
	arrived map[replayChannel]*byteQueue
	wake    sim.Waker
	waiting bool
	awaited replayChannel
}

// recv blocks p, the rank's process, until a message has arrived on ch,
// and returns its byte count.
func (r *replayRank) recv(p *sim.Process, ch replayChannel) int {
	q := r.arrived[ch]
	for q == nil {
		r.waiting, r.awaited = true, ch
		p.SuspendOn(r)
		q = r.arrived[ch]
	}
	bytes := q.pop()
	if q.empty() {
		// Drop the drained channel, so channels used once (as most
		// tags are) leave no entry behind, and recycle its queue.
		delete(r.arrived, ch)
		q.buf, q.head = q.buf[:0], 0
		r.rp.queues = append(r.rp.queues, q)
	}
	return bytes
}

// ResourceName implements sim.Resource.
func (r *replayRank) ResourceName() string {
	return fmt.Sprintf("message from rank %d (tag %d)", r.awaited.src, r.awaited.tag)
}

// Holders implements sim.Resource.
func (r *replayRank) Holders() []*sim.Process {
	if p := r.rp.procs[r.awaited.src]; p != nil {
		return []*sim.Process{p}
	}
	return nil
}

// byteQueue is a FIFO of delivered byte counts that reuses its buffer.
type byteQueue struct {
	buf  []int
	head int
}

func (q *byteQueue) empty() bool { return q.head == len(q.buf) }

func (q *byteQueue) pop() int {
	v := q.buf[q.head]
	q.head++
	return v
}

func (q *byteQueue) push(v int) {
	// Reclaim the consumed front before growing, once it is at least
	// half the buffer, so pushes stay amortized O(1).
	if len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}
