package trace

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"testing"

	"commchar/internal/sim"
)

// referenceValidate is Validate as it was before the balance check sorted
// its channels: one map entry per (src, dst, tag) channel. It is the
// oracle the sorted check must agree with, error text included.
func referenceValidate(t *Trace) error {
	if len(t.Events) != t.Ranks {
		return fmt.Errorf("trace: %d event sequences for %d ranks", len(t.Events), t.Ranks)
	}
	type channel struct{ src, dst, tag int }
	balance := map[channel]int{}
	for rank, seq := range t.Events {
		for i, e := range seq {
			if e.Peer < 0 || e.Peer >= t.Ranks {
				return fmt.Errorf("trace: rank %d event %d peer %d out of range", rank, i, e.Peer)
			}
			if e.Compute < 0 {
				return fmt.Errorf("trace: rank %d event %d negative compute", rank, i)
			}
			switch e.Op {
			case OpSend:
				if e.Bytes <= 0 {
					return fmt.Errorf("trace: rank %d event %d sends %d bytes", rank, i, e.Bytes)
				}
				balance[channel{rank, e.Peer, e.Tag}]++
			case OpRecv:
				balance[channel{e.Peer, rank, e.Tag}]--
			default:
				return fmt.Errorf("trace: rank %d event %d has op %v", rank, i, e.Op)
			}
		}
	}
	var first channel
	unbalanced := 0
	for ch, b := range balance {
		if b != 0 && (unbalanced == 0 ||
			cmp.Or(cmp.Compare(ch.src, first.src), cmp.Compare(ch.dst, first.dst), cmp.Compare(ch.tag, first.tag)) < 0) {
			first, unbalanced = ch, b
		}
	}
	if unbalanced != 0 {
		return fmt.Errorf("trace: channel %d->%d tag %d unbalanced by %d", first.src, first.dst, first.tag, unbalanced)
	}
	return nil
}

// validationTrace builds a small random trace for the Validate oracle.
// Every send gets its matching receive, shuffled into the receiver's
// program order; then, with the probabilities below, a few events are
// dropped or duplicated (unbalancing their channels) and one event is
// damaged (a structural error). Tags come from a narrow range so that
// channels carry several messages and their counts can cancel.
func validationTrace(rng *rand.Rand) *Trace {
	ranks := 1 + rng.IntN(5)
	t := New(ranks)
	for range rng.IntN(40) {
		src, dst, tag := rng.IntN(ranks), rng.IntN(ranks), rng.IntN(4)-1
		t.Add(src, Event{Op: OpSend, Peer: dst, Bytes: 1 + rng.IntN(64), Tag: tag,
			Compute: sim.Duration(rng.IntN(100))})
		t.Add(dst, Event{Op: OpRecv, Peer: src, Tag: tag})
	}
	for _, seq := range t.Events {
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	}
	if rng.IntN(2) == 0 {
		for range 1 + rng.IntN(3) {
			r := rng.IntN(ranks)
			seq := t.Events[r]
			if len(seq) == 0 {
				continue
			}
			i := rng.IntN(len(seq))
			if rng.IntN(2) == 0 {
				t.Events[r] = append(seq[:i], seq[i+1:]...)
			} else {
				t.Events[r] = append(seq, seq[i])
			}
		}
	}
	if rng.IntN(8) == 0 {
		r := rng.IntN(ranks)
		if seq := t.Events[r]; len(seq) > 0 {
			e := &seq[rng.IntN(len(seq))]
			switch rng.IntN(5) {
			case 0:
				e.Peer = ranks + rng.IntN(2)
			case 1:
				e.Peer = -1
			case 2:
				e.Compute = -1
			case 3:
				e.Op, e.Bytes = OpSend, 0
			default:
				e.Op = Op(2)
			}
		}
	}
	if rng.IntN(50) == 0 {
		t.Ranks++
	}
	return t
}

// TestValidateMatchesReference: on random small traces, balanced and
// unbalanced, with and without a structural error, Validate returns
// exactly the reference's error (or lack of one).
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 7))
	var balanced, unbalanced, structural int
	for n := range 20_000 {
		tr := validationTrace(rng)
		got, want := tr.Validate(), referenceValidate(tr)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trace %d (%d ranks, %v): Validate = %v, reference = %v", n, tr.Ranks, tr.Events, got, want)
		}
		switch {
		case want == nil:
			balanced++
		case len(want.Error()) > 14 && want.Error()[:14] == "trace: channel":
			unbalanced++
		default:
			structural++
		}
	}
	// The generator must exercise every outcome, or the agreement proves
	// little.
	if balanced < 1000 || unbalanced < 1000 || structural < 500 {
		t.Fatalf("generator skew: %d balanced, %d unbalanced, %d structural", balanced, unbalanced, structural)
	}
}
