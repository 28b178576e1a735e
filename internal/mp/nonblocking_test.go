package mp

import (
	"testing"

	"commchar/internal/sim"
)

func TestIrecvOverlapsCompute(t *testing.T) {
	// The receiver posts the receive, computes while the message is in
	// flight, and only then waits: the wait must cost (almost) nothing.
	w := NewWorld(DefaultConfig(2))
	var waitCost sim.Duration
	_, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, 64, "x")
		case 1:
			req := r.Irecv(0, 0)
			r.Compute(10_000_000) // far longer than transit
			t0 := r.Now()
			req.Wait()
			waitCost = sim.Duration(r.Now() - t0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the receiver-side software overhead remains at Wait time.
	max := w.cfg.Cost.RecvOverhead(64) + 1
	if waitCost > max {
		t.Fatalf("wait cost %d, want <= %d (overlap failed)", waitCost, max)
	}
}

func TestWaitTwicePanics(t *testing.T) {
	w := NewWorld(DefaultConfig(2))
	panicked := false
	_, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, 8, nil)
		case 1:
			req := r.Irecv(0, 0)
			req.Wait()
			func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				req.Wait()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("double Wait accepted")
	}
}

func TestExchangeRingNoDeadlock(t *testing.T) {
	const n = 8
	w := NewWorld(DefaultConfig(n))
	got := make([]any, n)
	_, err := w.Run(func(r *Rank) {
		right := (r.ID() + 1) % n
		left := (r.ID() - 1 + n) % n
		sreq := r.Isend(right, 5, 128, r.ID()*11)
		rreq := r.Irecv(left, 5)
		sreq.Wait()
		_, got[r.ID()] = rreq.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := ((i - 1 + n) % n) * 11
		if v != want {
			t.Fatalf("rank %d received %v, want %d", i, v, want)
		}
	}
}

func TestWaitAll(t *testing.T) {
	w := NewWorld(DefaultConfig(3))
	var payloads []any
	_, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			reqs := []*Request{r.Irecv(1, 0), r.Irecv(2, 0)}
			for _, req := range reqs {
				_, p := req.Wait()
				payloads = append(payloads, p)
			}
		default:
			r.Send(0, 0, 16, r.ID()*100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if payloads[0] != 100 || payloads[1] != 200 {
		t.Fatalf("payloads = %v", payloads)
	}
}

func TestNonblockingTracesAtWait(t *testing.T) {
	// Irecv itself must not trace; Wait records the recv event, keeping
	// traces replayable.
	w := NewWorld(DefaultConfig(2))
	var afterIrecv, afterWait int
	_, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, 8, nil)
		case 1:
			req := r.Irecv(0, 0)
			afterIrecv = r.traceEventCount()
			req.Wait()
			afterWait = r.traceEventCount()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if afterIrecv != 0 || afterWait != 1 {
		t.Fatalf("trace counts: %d after Irecv, %d after Wait", afterIrecv, afterWait)
	}
	if err := w.Trace().Validate(); err != nil {
		t.Fatal(err)
	}
}
