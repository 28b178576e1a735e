package spasm

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"commchar/internal/sim"
)

func TestRunCompletesAndTimes(t *testing.T) {
	m := NewDefault(4)
	makespan, err := m.Run(func(e *Env) {
		e.Compute(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 1000 {
		t.Fatalf("makespan = %d, want 1000", makespan)
	}
}

func TestSharedReadGeneratesTraffic(t *testing.T) {
	m := NewDefault(4)
	arr := m.NewArray(64, 8)
	_, err := m.Run(func(e *Env) {
		for i := 0; i < arr.Len(); i++ {
			e.ReadArray(arr, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Net.Delivered() == 0 {
		t.Fatal("no coherence traffic for shared reads")
	}
	if err := m.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	const n = 8
	m := NewDefault(n)
	after := make([]sim.Time, n)
	_, err := m.Run(func(e *Env) {
		e.Compute(sim.Duration(e.ID()) * 50_000)
		e.Barrier()
		after[e.ID()] = e.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	slowestWork := sim.Time((n - 1) * 50_000)
	for i, a := range after {
		if a < slowestWork {
			t.Fatalf("proc %d left barrier at %d before slowest entered (%d)", i, a, slowestWork)
		}
	}
}

func TestBarrierRepeats(t *testing.T) {
	const n = 4
	const rounds = 10
	m := NewDefault(n)
	counts := make([]int, n)
	_, err := m.Run(func(e *Env) {
		for r := 0; r < rounds; r++ {
			e.Compute(sim.Duration(1 + e.ID()*100))
			e.Barrier()
			counts[e.ID()]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Fatalf("proc %d completed %d rounds", i, c)
		}
	}
}

func TestBarrierGeneratesFavoriteZeroTraffic(t *testing.T) {
	const n = 8
	m := NewDefault(n)
	_, err := m.Run(func(e *Env) {
		for r := 0; r < 5; r++ {
			e.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	toZero, fromZero := 0, 0
	for _, d := range m.Net.Log() {
		if d.Dst == 0 {
			toZero++
		}
		if d.Src == 0 {
			fromZero++
		}
	}
	if toZero != 5*(n-1) || fromZero != 5*(n-1) {
		t.Fatalf("barrier traffic to/from 0: %d/%d, want %d each", toZero, fromZero, 5*(n-1))
	}
}

func TestLockMutualExclusion(t *testing.T) {
	const n = 8
	m := NewDefault(n)
	inside := 0
	maxInside := 0
	total := 0
	_, err := m.Run(func(e *Env) {
		for i := 0; i < 10; i++ {
			e.Lock(3)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			e.Compute(100)
			inside--
			total++
			e.Unlock(3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d", maxInside)
	}
	if total != n*10 {
		t.Fatalf("critical sections = %d", total)
	}
}

func TestDistinctLocksAreIndependent(t *testing.T) {
	m := NewDefault(4)
	_, err := m.Run(func(e *Env) {
		e.Lock(e.ID()) // each proc its own lock: no contention deadlock
		e.Compute(10)
		e.Unlock(e.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	m := NewDefault(2)
	panicked := false
	_, err := m.Run(func(e *Env) {
		if e.ID() == 0 {
			func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				e.Unlock(1)
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("unlock of unheld lock did not panic")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewDefault(2)
	_, err := m.Run(func(e *Env) {
		if e.ID() == 0 {
			e.Barrier()
		}
		// proc 1 never enters the barrier
	})
	// The kernel's run reports the deadlock: the blocked processor and the
	// network's own diagnostic section.
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("deadlock reported as %v, want a *sim.DeadlockError", err)
	}
	for _, want := range []string{"blocked: proc0", "[mesh]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic lacks %q:\n%v", want, err)
		}
	}
}

func TestArrayBounds(t *testing.T) {
	m := NewDefault(2)
	arr := m.NewArray(4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds address accepted")
		}
	}()
	arr.Addr(4)
}

func TestFalseSharingInvalidations(t *testing.T) {
	// Two processors write adjacent words in one cache line: the line must
	// ping-pong, producing invalidations/fetches.
	m := NewDefault(2)
	arr := m.NewArray(4, 8) // one 32-byte line
	_, err := m.Run(func(e *Env) {
		for i := 0; i < 20; i++ {
			e.WriteArray(arr, e.ID())
			e.Compute(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Mem.Stats()
	if st.OwnerFetches == 0 && st.Invalidations == 0 {
		t.Fatalf("no ping-pong detected: %+v", st)
	}
}

func TestLockFairnessFIFOProperty(t *testing.T) {
	// Grants are issued in request-arrival order; with staggered arrivals
	// the critical sections must follow that order.
	prop := func(seed uint64) bool {
		m := NewDefault(4)
		st := sim.NewStream(seed)
		delays := make([]sim.Duration, 4)
		for i := range delays {
			delays[i] = sim.Duration(st.IntN(100_000))
		}
		var order []int
		_, err := m.Run(func(e *Env) {
			e.Compute(delays[e.ID()])
			e.Lock(0)
			order = append(order, e.ID())
			e.Compute(1000)
			e.Unlock(0)
		})
		if err != nil {
			return false
		}
		return len(order) == 4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedWorkloadInvariants(t *testing.T) {
	const n = 8
	m := NewDefault(n)
	arr := m.NewArray(256, 8)
	counter := m.NewArray(1, 8)
	_, err := m.Run(func(e *Env) {
		st := sim.NewStream(uint64(e.ID()) + 77)
		for i := 0; i < 50; i++ {
			e.ReadArray(arr, st.IntN(arr.Len()))
			if st.Float64() < 0.25 {
				e.Lock(0)
				e.ReadArray(counter, 0)
				e.WriteArray(counter, 0)
				e.Unlock(0)
			}
			if i%10 == 9 {
				e.Barrier()
			}
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Net.InFlight() != 0 {
		t.Fatal("messages still in flight after completion")
	}
}
