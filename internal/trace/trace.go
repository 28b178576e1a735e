// Package trace defines the application-level communication trace used by
// the paper's static (trace-driven) strategy, and the dependency-aware
// replay engine that feeds a trace through the mesh simulator without the
// classic trace-driven pitfalls [13]: a message is never injected before
// its sender has completed the receives it causally waited on, so the event
// order on the network simulator matches the order any real execution would
// produce.
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"commchar/internal/sim"
)

// Op is the kind of a trace event.
type Op int

const (
	// OpSend transmits Bytes to Peer with Tag.
	OpSend Op = iota
	// OpRecv blocks until a matching message (from Peer, with Tag)
	// arrives.
	OpRecv
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Event is one communication event in a rank's local program order.
// Compute is the local computation time spent since the rank's previous
// event (the "think time" the replay engine preserves).
type Event struct {
	Op      Op
	Peer    int
	Bytes   int
	Tag     int
	Compute sim.Duration
}

// Trace is a complete application trace: one event sequence per rank, in
// program order.
type Trace struct {
	Ranks  int
	Events [][]Event
}

// New returns an empty trace for n ranks.
func New(n int) *Trace {
	return &Trace{Ranks: n, Events: make([][]Event, n)}
}

// Add appends an event to a rank's sequence.
func (t *Trace) Add(rank int, e Event) {
	t.Events[rank] = append(t.Events[rank], e)
}

// Messages returns the total number of send events.
func (t *Trace) Messages() int {
	n := 0
	for _, seq := range t.Events {
		for _, e := range seq {
			if e.Op == OpSend {
				n++
			}
		}
	}
	return n
}

// TotalEvents returns the number of events across all ranks.
func (t *Trace) TotalEvents() int {
	n := 0
	for _, seq := range t.Events {
		n += len(seq)
	}
	return n
}

// Validate checks the structural sanity of the trace: peers in range and
// sends matched by receives (same count per (src, dst, tag) channel).
func (t *Trace) Validate() error {
	if len(t.Events) != t.Ranks {
		return fmt.Errorf("trace: %d event sequences for %d ranks", len(t.Events), t.Ranks)
	}
	// The channels balance by sorting references to the events, 8 bytes
	// an event, not by keeping a table of channels. int32 is wide enough:
	// 2^31 ranks, or events of one rank, would take over 40 GiB.
	type ref struct{ rank, i int32 }
	refs := make([]ref, 0, t.TotalEvents())
	for rank, seq := range t.Events {
		for i, e := range seq {
			if e.Peer < 0 || e.Peer >= t.Ranks {
				return fmt.Errorf("trace: rank %d event %d peer %d out of range", rank, i, e.Peer)
			}
			if e.Compute < 0 {
				return fmt.Errorf("trace: rank %d event %d negative compute", rank, i)
			}
			if e.Op != OpSend && e.Op != OpRecv {
				return fmt.Errorf("trace: rank %d event %d has op %v", rank, i, e.Op)
			}
			if e.Op == OpSend && e.Bytes <= 0 {
				return fmt.Errorf("trace: rank %d event %d sends %d bytes", rank, i, e.Bytes)
			}
			refs = append(refs, ref{int32(rank), int32(i)})
		}
	}
	// channel returns an event's (src, dst, tag), and +1 for a send or -1
	// for a receive.
	channel := func(r ref) (src, dst, tag, n int) {
		e := &t.Events[r.rank][r.i]
		if e.Op == OpSend {
			return int(r.rank), e.Peer, e.Tag, 1
		}
		return e.Peer, int(r.rank), e.Tag, -1
	}
	byChannel := func(a, b ref) int {
		as, ad, at, _ := channel(a)
		bs, bd, bt, _ := channel(b)
		if as != bs {
			return cmp.Compare(as, bs)
		}
		if ad != bd {
			return cmp.Compare(ad, bd)
		}
		return cmp.Compare(at, bt)
	}
	slices.SortFunc(refs, byChannel)
	// Walking the channels in (src, dst, tag) order, the first unbalanced
	// one is the smallest, so the error names the same channel every time.
	for i := 0; i < len(refs); {
		first, unbalanced := refs[i], 0
		for ; i < len(refs) && byChannel(refs[i], first) == 0; i++ {
			_, _, _, n := channel(refs[i])
			unbalanced += n
		}
		if unbalanced != 0 {
			src, dst, tag, _ := channel(first)
			return fmt.Errorf("trace: channel %d->%d tag %d unbalanced by %d", src, dst, tag, unbalanced)
		}
	}
	return nil
}
