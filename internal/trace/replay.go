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

	// Per-rank inbox: delivered byte counts per channel, and a waiting
	// receiver (at most one per rank since ranks are sequential).
	type inbox struct {
		arrived map[replayChannel][]int // byte counts, FIFO
		waiting map[replayChannel]sim.Waker
	}
	inboxes := make([]inbox, t.Ranks)
	for i := range inboxes {
		inboxes[i] = inbox{arrived: map[replayChannel][]int{}, waiting: map[replayChannel]sim.Waker{}}
	}
	procs := make([]*sim.Process, t.Ranks)

	for rank := 0; rank < t.Ranks; rank++ {
		rank := rank
		seq := t.Events[rank]
		s.Spawn(fmt.Sprintf("replay-rank%d", rank), func(p *sim.Process) {
			procs[rank] = p
			for _, e := range seq {
				p.Hold(e.Compute)
				switch e.Op {
				case OpSend:
					p.Hold(cost.SendOverhead(e.Bytes))
					dst := e.Peer
					ch := replayChannel{src: rank, tag: e.Tag}
					m := mesh.Message{
						ID:     net.NextID(),
						Src:    rank,
						Dst:    dst,
						Bytes:  e.Bytes,
						Inject: p.Now(),
					}
					net.Inject(m, func(d mesh.Delivery) {
						if d.Status != mesh.StatusDelivered {
							// The network gave up on the message (fault
							// injection); the receiver stays blocked and
							// the watchdog reports the stall.
							return
						}
						ib := &inboxes[dst]
						ib.arrived[ch] = append(ib.arrived[ch], d.Bytes)
						if w, ok := ib.waiting[ch]; ok {
							delete(ib.waiting, ch)
							w.Wake()
						}
					})
				case OpRecv:
					ch := replayChannel{src: e.Peer, tag: e.Tag}
					ib := &inboxes[rank]
					for len(ib.arrived[ch]) == 0 {
						ib.waiting[ch] = sim.WakerFor(p)
						p.SuspendOn(replayWait{procs: procs, src: e.Peer, tag: e.Tag})
					}
					bytes := ib.arrived[ch][0]
					ib.arrived[ch] = ib.arrived[ch][1:]
					p.Hold(cost.RecvOverhead(bytes))
				}
			}
		})
	}
	return nil
}

// replayChannel is the FIFO matching key of the replay engine.
type replayChannel struct{ src, tag int }

// replayWait is the sim.Resource a replayed rank blocks on while waiting
// for a message; its holder is the sender's replay process, which gives
// watchdog reports their wait-for edges.
type replayWait struct {
	procs []*sim.Process
	src   int
	tag   int
}

// ResourceName implements sim.Resource.
func (w replayWait) ResourceName() string {
	return fmt.Sprintf("message from rank %d (tag %d)", w.src, w.tag)
}

// Holders implements sim.Resource.
func (w replayWait) Holders() []*sim.Process {
	if p := w.procs[w.src]; p != nil {
		return []*sim.Process{p}
	}
	return nil
}
