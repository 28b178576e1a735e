package sim

import "testing"

// BenchmarkProcessHold times one Process.Hold: a calendar event plus the
// two coroutine switches that suspend and resume the process. allocs/op
// is zero; TestProcessHoldAllocFree pins that.
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

// BenchmarkScheduleStep times one calendar round trip, Schedule then
// Step, against a standing calendar of 1024 pending events, so every op
// sifts through a heap of realistic depth. allocs/op is the calendar's
// per-event allocation, zero once the heap slice has grown.
func BenchmarkScheduleStep(b *testing.B) {
	s := New()
	fn := func() {}
	const pending = 1024
	for i := 0; i < pending; i++ {
		s.Schedule(Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(pending, fn)
		s.Step()
	}
}
