package sim

import "testing"

// BenchmarkProcessHold times one Process.Hold: a calendar event plus the
// two goroutine handoffs that suspend and resume the process.
func BenchmarkProcessHold(b *testing.B) {
	s := New()
	s.Spawn("holder", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
