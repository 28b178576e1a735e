package spasm

import "testing"

// TestLockHandoffAllocFree pins the lock path at zero allocations per
// Lock/Unlock pair in the steady state. Four processors contend on lock 1,
// whose home is processor 1, so the loop covers remote requests, grants
// and releases, the same-node messages of the home's own acquisitions,
// and grants sent from a release to a queued requester. Processor 0
// measures its own handoffs while the others keep contending; what they
// allocate meanwhile counts too.
func TestLockHandoffAllocFree(t *testing.T) {
	const procs, lock, warm = 4, 1, 50
	m := NewDefault(procs)
	handoff := func(e *Env) {
		e.Lock(lock)
		e.Compute(100)
		e.Unlock(lock)
	}
	var allocs float64
	done := false
	_, err := m.Run(func(e *Env) {
		if e.ID() != 0 {
			for !done {
				handoff(e)
			}
			return
		}
		for range warm {
			handoff(e)
		}
		allocs = testing.AllocsPerRun(200, func() { handoff(e) })
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a Lock/Unlock pair allocates %v times in the steady state, want 0", allocs)
	}
}
