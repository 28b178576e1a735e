package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %d, want 30", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

// TestScheduleStepAllocFree pins the by-value calendar: once the heap
// slice has grown, scheduling and firing an event allocates nothing.
func TestScheduleStepAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(Duration(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(64, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %v times per event, want 0", allocs)
	}
}

// TestProcessHoldAllocFree pins the coroutine handoff: once the calendar
// has grown, a Hold, with its resume event and both switches, allocates
// nothing.
func TestProcessHoldAllocFree(t *testing.T) {
	s := New()
	stop := false
	s.Spawn("holder", func(p *Process) {
		for !stop {
			p.Hold(1)
		}
	})
	s.Step() // first activation: the body runs to its first Hold
	allocs := testing.AllocsPerRun(1000, func() { s.Step() })
	if allocs != 0 {
		t.Fatalf("Process.Hold allocates %v times per call, want 0", allocs)
	}
	stop = true
	s.Run()
}

// TestProcessPanicUnwindsThroughRun: a panicking process body does not
// crash the program; the panic comes out of Run, on the kernel's side,
// naming the process and carrying the body's own stack.
func TestProcessPanicUnwindsThroughRun(t *testing.T) {
	s := New()
	s.Spawn("bad", func(p *Process) {
		p.Hold(5)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	pp, ok := got.(*ProcessPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want *ProcessPanic", got, got)
	}
	if pp.Process != "bad" || pp.Value != "boom" {
		t.Fatalf("ProcessPanic = {%q, %v}, want {bad, boom}", pp.Process, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "TestProcessPanicUnwindsThroughRun") {
		t.Fatalf("stack does not reach the body:\n%s", pp.Stack)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %d, want 5", s.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []Duration{5, 15, 25} {
		d := d
		s.Schedule(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want two events", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("clock = %d, want 20", s.Now())
	}
	s.Run()
	if len(fired) != 3 || fired[2] != 25 {
		t.Fatalf("remaining event mishandled: %v", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var ts []Time
	s.Schedule(10, func() {
		ts = append(ts, s.Now())
		s.Schedule(10, func() { ts = append(ts, s.Now()) })
	})
	s.Run()
	if len(ts) != 2 || ts[0] != 10 || ts[1] != 20 {
		t.Fatalf("nested schedule times = %v", ts)
	}
}

func TestProcessHold(t *testing.T) {
	s := New()
	var marks []Time
	s.Spawn("p", func(p *Process) {
		marks = append(marks, p.Now())
		p.Hold(100)
		marks = append(marks, p.Now())
		p.Hold(50)
		marks = append(marks, p.Now())
	})
	s.Run()
	want := []Time{0, 100, 150}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Process) {
		p.Hold(10)
		order = append(order, "a10")
		p.Hold(20)
		order = append(order, "a30")
	})
	s.Spawn("b", func(p *Process) {
		p.Hold(20)
		order = append(order, "b20")
	})
	s.Run()
	if len(order) != 3 || order[0] != "a10" || order[1] != "b20" || order[2] != "a30" {
		t.Fatalf("interleaving = %v", order)
	}
}

func TestSuspendWake(t *testing.T) {
	s := New()
	var woke Time = -1
	var target *Process
	target = s.Spawn("sleeper", func(p *Process) {
		p.Suspend()
		woke = p.Now()
	})
	s.Spawn("waker", func(p *Process) {
		p.Hold(42)
		WakerFor(target).Wake()
	})
	s.Run()
	if woke != 42 {
		t.Fatalf("woke at %d, want 42", woke)
	}
}

func TestFacilityFCFSAndUtilization(t *testing.T) {
	s := New()
	f := NewFacility("link")
	var grants []string
	serve := func(name string, arrive, service Duration) {
		s.Spawn(name, func(p *Process) {
			p.Hold(arrive)
			f.Reserve(p)
			grants = append(grants, name)
			p.Hold(service)
			f.Release(p)
		})
	}
	serve("a", 0, 100)
	serve("b", 10, 100)
	serve("c", 20, 100)
	s.Run()
	if len(grants) != 3 || grants[0] != "a" || grants[1] != "b" || grants[2] != "c" {
		t.Fatalf("grant order = %v", grants)
	}
	// Back-to-back service: the server was busy for all 300 ticks.
	if s.Now() != 300 {
		t.Fatalf("end time = %d, want 300", s.Now())
	}
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	s := New()
	f := NewFacility("f")
	panicked := false
	s.Spawn("x", func(p *Process) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		f.Release(p)
	})
	s.Run()
	if !panicked {
		t.Fatal("expected panic releasing unheld facility")
	}
}

// Property: for any list of non-negative delays, events fire in sorted
// order and the clock ends at the maximum delay.
func TestEventOrderingProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []Time
		var max Time
		for _, r := range raw {
			d := Duration(r)
			if Time(d) > max {
				max = Time(d)
			}
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of Holds accumulates exactly.
func TestHoldAccumulationProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		s := New()
		var end Time
		var sum Time
		for _, r := range raw {
			sum += Time(r)
		}
		s.Spawn("p", func(p *Process) {
			for _, r := range raw {
				p.Hold(Duration(r))
			}
			end = p.Now()
		})
		s.Run()
		return end == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(7), NewStream(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewStream(8)
	same := true
	a2 := NewStream(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamExponentialMean(t *testing.T) {
	st := NewStream(123)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += st.Exponential(5.0)
	}
	mean := sum / n
	if mean < 4.9 || mean > 5.1 {
		t.Fatalf("exponential mean = %v, want ~5.0", mean)
	}
}
