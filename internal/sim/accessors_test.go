package sim

import "testing"

func TestAccessors(t *testing.T) {
	s := New()
	f := NewFacility("srv")
	if f.ResourceName() != "facility srv" || f.Holders() != nil {
		t.Fatal("fresh facility state wrong")
	}

	var holders []*Process
	p := s.Spawn("worker", func(p *Process) {
		f.Reserve(p)
		holders = f.Holders()
		p.Hold(50)
		f.Release(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(holders) != 1 || holders[0] != p {
		t.Fatalf("holders while reserved = %v", holders)
	}
	if f.Holders() != nil {
		t.Fatal("released facility still has a holder")
	}
	// One spawn activation and one Hold resume.
	if s.Now() != 50 || s.EventsFired() != 2 {
		t.Fatalf("now = %d, events = %d", s.Now(), s.EventsFired())
	}
}

func TestStreamVariates(t *testing.T) {
	st := NewStream(3)
	perm := st.Perm(10)
	seen := make([]bool, 10)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", perm)
		}
		seen[v] = true
	}
	for i := 0; i < 1000; i++ {
		if v := st.Uniform(5, 7); v < 5 || v >= 7 {
			t.Fatalf("uniform out of range: %v", v)
		}
		if v := st.IntN(3); v < 0 || v > 2 {
			t.Fatalf("IntN out of range: %v", v)
		}
	}
	// Normal: mean check.
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += st.Normal(10, 2)
	}
	if m := sum / n; m < 9.9 || m > 10.1 {
		t.Fatalf("normal mean = %v", m)
	}
}
