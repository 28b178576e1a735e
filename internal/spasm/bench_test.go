package spasm

import "testing"

// BenchmarkLockHandoff runs eight processors that contend on one lock,
// each taking it, computing briefly and releasing it, until b.N critical
// sections have run. One op is one handoff: a request, a grant and a
// release message, most of them through the mesh, so allocs/op counts
// what the lock path allocates per acquisition.
func BenchmarkLockHandoff(b *testing.B) {
	const procs = 8
	m := NewDefault(procs)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := m.Run(func(e *Env) {
		for i := e.ID(); i < b.N; i += procs {
			e.Lock(0)
			e.Compute(100)
			e.Unlock(0)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
