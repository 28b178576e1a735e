package coll

import (
	"fmt"
	"sort"

	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

// hasCollectiveTags reports whether any traced event carries a tag from
// the reserved collective encoding.
func hasCollectiveTags(tr *trace.Trace) bool {
	for _, seq := range tr.Events {
		for _, e := range seq {
			if _, ok := mp.DecodeTag(e.Tag); ok {
				return true
			}
		}
	}
	return false
}

// rankClock is one rank's reconstructed time budget.
type rankClock struct {
	busy     int64
	overhead int64
	idle     int64
	waits    int
	finish   sim.Time
}

// instAcc accumulates one collective instance (one tag block) across
// ranks during the per-rank walks. Per-rank state lives in fixed-size
// slices indexed by rank, so assembly never depends on map order.
type instAcc struct {
	block int
	op    mp.CollectiveOp
	alg   mp.Algorithm
	set   bool

	entry []sim.Time // first entry per rank; -1 = did not participate
	exit  []sim.Time // last exit per rank
	sends []int
	recvs []int

	msgs        int
	bytes       int64
	maxMsgBytes int
}

// reconstruction is the full outcome of the timeline walk.
type reconstruction struct {
	ranks     []rankClock
	blocks    map[int]*instAcc
	collMsgs  int
	collBytes int64
}

// arrival is one delivered message's receive-side view.
type arrival struct {
	end   sim.Time
	bytes int
}

// chanKey matches the replay engine's FIFO channel: (src, dst, tag).
type chanKey struct{ src, dst, tag int }

// reconstruct replays the trace against the delivery log in closed form:
// it recovers per-message tags (rank deliveries in ID order are trace
// sends in program order), rebuilds every rank's timeline under the same
// cost model the replay charged, and accumulates collective instances.
// Any disagreement with the log — a count mismatch, a wrong destination,
// an injection time off by a nanosecond — is an error, so the returned
// figures are exact by construction.
func reconstruct(tr *trace.Trace, log []mesh.Delivery, cost trace.CostModel) (*reconstruction, error) {
	if cost == nil {
		cost = trace.ZeroCost{}
	}
	n := tr.Ranks

	// Per-source delivery indices in message-ID order = send program order.
	bySrc := make([][]int, n)
	for i, d := range log {
		if d.Src < 0 || int(d.Src) >= n {
			return nil, fmt.Errorf("coll: delivery %d from rank %d outside %d-rank trace", d.ID, d.Src, n)
		}
		bySrc[d.Src] = append(bySrc[d.Src], i)
	}
	for r := 0; r < n; r++ {
		idx := bySrc[r]
		sort.Slice(idx, func(a, b int) bool {
			if log[idx[a]].ID != log[idx[b]].ID {
				return log[idx[a]].ID < log[idx[b]].ID
			}
			return log[idx[a]].Inject < log[idx[b]].Inject
		})
		sends := 0
		for _, e := range tr.Events[r] {
			if e.Op == trace.OpSend {
				sends++
			}
		}
		if sends != len(idx) {
			return nil, fmt.Errorf("coll: rank %d traced %d sends but the log holds %d deliveries from it", r, sends, len(idx))
		}
	}

	// Receive-side arrival queues in log (completion) order, mirroring
	// the replay inbox append order. Failed deliveries never reached an
	// inbox, so they are excluded here (their send cost still counts).
	queues := map[chanKey][]arrival{}
	heads := map[chanKey]int{}
	tagOf := make([]int, len(log))
	for r := 0; r < n; r++ {
		pos := 0
		for _, e := range tr.Events[r] {
			if e.Op != trace.OpSend {
				continue
			}
			li := bySrc[r][pos]
			pos++
			d := log[li]
			if int(d.Dst) != e.Peer || d.Bytes != e.Bytes {
				return nil, fmt.Errorf("coll: rank %d send %d went to %d (%dB) but the trace says %d (%dB)",
					r, d.ID, d.Dst, d.Bytes, e.Peer, e.Bytes)
			}
			tagOf[li] = e.Tag
		}
	}
	for i, d := range log {
		if d.Status != mesh.StatusDelivered {
			continue
		}
		k := chanKey{src: int(d.Src), dst: int(d.Dst), tag: tagOf[i]}
		queues[k] = append(queues[k], arrival{end: d.End, bytes: d.Bytes})
	}

	rec := &reconstruction{
		ranks:  make([]rankClock, n),
		blocks: map[int]*instAcc{},
	}
	touch := func(block int) *instAcc {
		a := rec.blocks[block]
		if a == nil {
			a = &instAcc{block: block, entry: make([]sim.Time, n), exit: make([]sim.Time, n), sends: make([]int, n), recvs: make([]int, n)}
			for r := range a.entry {
				a.entry[r] = -1
			}
			rec.blocks[block] = a
		}
		return a
	}

	for r := 0; r < n; r++ {
		clk := &rec.ranks[r]
		t := sim.Time(0)
		pos := 0
		for _, e := range tr.Events[r] {
			enter := t + sim.Time(e.Compute)
			clk.busy += int64(e.Compute)
			var done sim.Time
			var msgBytes int
			switch e.Op {
			case trace.OpSend:
				d := log[bySrc[r][pos]]
				pos++
				inj := enter + sim.Time(cost.SendOverhead(e.Bytes))
				if d.Inject != inj {
					return nil, fmt.Errorf("coll: rank %d send %d reconstructed inject %d != logged %d (timeline drift)",
						r, d.ID, inj, d.Inject)
				}
				clk.overhead += int64(inj - enter)
				done = inj
				msgBytes = e.Bytes
			case trace.OpRecv:
				k := chanKey{src: e.Peer, dst: r, tag: e.Tag}
				q := queues[k]
				h := heads[k]
				if h >= len(q) {
					return nil, fmt.Errorf("coll: rank %d receive from %d (tag %d) has no matching delivery", r, e.Peer, e.Tag)
				}
				heads[k] = h + 1
				ar := q[h]
				start := enter
				if ar.end > enter {
					clk.idle += int64(ar.end - enter)
					clk.waits++
					start = ar.end
				}
				done = start + sim.Time(cost.RecvOverhead(ar.bytes))
				clk.overhead += int64(done - start)
				msgBytes = ar.bytes
			default:
				return nil, fmt.Errorf("coll: rank %d has unknown trace op %v", r, e.Op)
			}
			t = done
			clk.finish = done

			info, ok := mp.DecodeTag(e.Tag)
			if !ok {
				continue
			}
			a := touch(info.Block)
			if !a.set {
				a.op, a.alg, a.set = info.Op, info.Algorithm, true
			} else if a.op != info.Op || a.alg != info.Algorithm {
				return nil, fmt.Errorf("coll: tag block %d mixes %s/%s with %s/%s",
					info.Block, a.op, a.alg, info.Op, info.Algorithm)
			}
			if a.entry[r] < 0 {
				a.entry[r] = enter
			}
			a.exit[r] = done
			if e.Op == trace.OpSend {
				a.sends[r]++
				a.msgs++
				a.bytes += int64(msgBytes)
				rec.collMsgs++
				rec.collBytes += int64(msgBytes)
				if msgBytes > a.maxMsgBytes {
					a.maxMsgBytes = msgBytes
				}
			} else {
				a.recvs[r]++
			}
		}
	}

	// Losslessness check: every delivered message must have been consumed
	// by exactly one traced receive (trace.Validate guarantees channel
	// balance, so a leftover arrival means the matching above diverged
	// from the replay's).
	keys := make([]chanKey, 0, len(queues))
	for k := range queues {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].src != keys[b].src {
			return keys[a].src < keys[b].src
		}
		if keys[a].dst != keys[b].dst {
			return keys[a].dst < keys[b].dst
		}
		return keys[a].tag < keys[b].tag
	})
	for _, k := range keys {
		if heads[k] != len(queues[k]) {
			return nil, fmt.Errorf("coll: %d unconsumed deliveries on channel %d->%d tag %d",
				len(queues[k])-heads[k], k.src, k.dst, k.tag)
		}
	}
	return rec, nil
}

// instances finalizes the accumulated blocks into the per-collective
// records, in global sequence order.
func (rec *reconstruction) instances() []Instance {
	blocks := make([]int, 0, len(rec.blocks))
	for b := range rec.blocks {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	out := make([]Instance, 0, len(blocks))
	for _, b := range blocks {
		a := rec.blocks[b]
		inst := Instance{
			Seq:       a.block,
			Op:        a.op.String(),
			Algorithm: a.op.AlgorithmName(a.alg),
			Shape:     a.op.Shape(a.alg),
			Root:      rootOf(a),
			Messages:  a.msgs,
			MsgBytes:  a.maxMsgBytes,
			Bytes:     a.bytes,
			Regime:    Regime(a.maxMsgBytes),
		}
		first := true
		var maxEntry sim.Time
		for r, en := range a.entry {
			if en < 0 {
				continue
			}
			inst.Ranks++
			if first || en < inst.Start {
				inst.Start = en
			}
			if first || en > maxEntry {
				maxEntry = en
			}
			if first || a.exit[r] > inst.End {
				inst.End = a.exit[r]
			}
			first = false
		}
		inst.Span = sim.Duration(inst.End - inst.Start)
		inst.Depth = a.op.SequentialDepth(a.alg, inst.Ranks)
		inst.Desync = sim.Duration(maxEntry - inst.Start)
		if inst.Span > 0 {
			inst.DesyncIndex = float64(inst.Desync) / float64(inst.Span)
		}
		inst.WaveNSPerRank, inst.WaveR2 = waveFit(a.entry)
		out = append(out, inst)
	}
	return out
}

// rootOf identifies the rooted operation's root from the message pattern:
// a broadcast root never receives, a reduce/gather root never sends, the
// barrier's hub is rank 0, and the all-to-all has no root.
func rootOf(a *instAcc) int {
	switch a.op {
	case mp.OpBarrier:
		return 0
	case mp.OpBcast:
		for r, recvs := range a.recvs {
			if a.entry[r] >= 0 && recvs == 0 {
				return r
			}
		}
	case mp.OpReduce, mp.OpGather:
		for r, sends := range a.sends {
			if a.entry[r] >= 0 && sends == 0 {
				return r
			}
		}
	}
	return -1
}

// fuseComposites labels adjacent reduce+bcast pairs of the same root and
// payload as one logical allreduce (how mp.Allreduce is built).
func fuseComposites(insts []Instance) {
	for i := 0; i+1 < len(insts); i++ {
		a, b := &insts[i], &insts[i+1]
		if a.Op == "reduce" && b.Op == "bcast" && b.Seq == a.Seq+1 &&
			a.Root == b.Root && a.MsgBytes == b.MsgBytes {
			a.Composite = "allreduce"
			b.Composite = "allreduce"
		}
	}
}
