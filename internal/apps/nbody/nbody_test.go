package nbody

import (
	"math"
	"testing"

	"commchar/internal/spasm"
)

func TestMatchesSequentialReferenceExactly(t *testing.T) {
	cfg := Config{Bodies: 64, Steps: 3, DT: 1e-3, Soft: 1e-2, RngSeed: 1}
	m := spasm.NewDefault(4)
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(cfg)
	for i := range want {
		for d := 0; d < 3; d++ {
			if res.Bodies[i].Pos[d] != want[i].Pos[d] {
				t.Fatalf("body %d pos[%d]: %v != %v", i, d, res.Bodies[i].Pos[d], want[i].Pos[d])
			}
			if res.Bodies[i].Vel[d] != want[i].Vel[d] {
				t.Fatalf("body %d vel[%d] differs", i, d)
			}
		}
	}
}

func TestIndependentOfProcessorCount(t *testing.T) {
	cfg := Config{Bodies: 64, Steps: 2, DT: 1e-3, Soft: 1e-2, RngSeed: 2}
	m8 := spasm.NewDefault(8)
	r8, err := Run(m8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2 := spasm.NewDefault(2)
	r2, err := Run(m2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r8.Bodies {
		for d := 0; d < 3; d++ {
			if r8.Bodies[i].Pos[d] != r2.Bodies[i].Pos[d] {
				t.Fatalf("body %d differs across processor counts", i)
			}
		}
	}
}

func TestMomentumApproximatelyConserved(t *testing.T) {
	// Softened gravity with symmetric pairwise forces conserves momentum
	// up to integration error.
	cfg := Config{Bodies: 32, Steps: 5, DT: 1e-3, Soft: 5e-2, RngSeed: 3}
	init := InitialBodies(cfg)
	final := Reference(cfg)
	var p0, p1 [3]float64
	for i := range init {
		for d := 0; d < 3; d++ {
			p0[d] += init[i].Mass * init[i].Vel[d]
			p1[d] += final[i].Mass * final[i].Vel[d]
		}
	}
	for d := 0; d < 3; d++ {
		// Not exactly conserved (forces use m_j not m_i·m_j symmetric
		// accumulation per body), so allow drift proportional to dt.
		if math.Abs(p1[d]-p0[d]) > 0.5 {
			t.Fatalf("momentum drifted: %v -> %v", p0, p1)
		}
	}
}

func TestAllToAllCommunication(t *testing.T) {
	cfg := Config{Bodies: 64, Steps: 1, DT: 1e-3, Soft: 1e-2, RngSeed: 4}
	m := spasm.NewDefault(8)
	_, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[int32]bool{}
	for _, d := range m.Net.Log() {
		srcs[d.Src] = true
	}
	if len(srcs) != 8 {
		t.Fatalf("traffic from %d sources, want 8", len(srcs))
	}
	if err := m.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsIndivisibleBodies(t *testing.T) {
	m := spasm.NewDefault(4)
	if _, err := Run(m, Config{Bodies: 10, Steps: 1, DT: 1e-3, Soft: 1e-2}); err == nil {
		t.Fatal("indivisible body count accepted")
	}
}
