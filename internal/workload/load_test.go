package workload

import (
	"math"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
)

func driveFor(t *testing.T, g *Generator, until sim.Time, seed uint64) Metrics {
	t.Helper()
	m, err := Simulate(g, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(g.Procs)...), until, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUniformPoissonRate(t *testing.T) {
	g := UniformPoisson(16, 5000, []stats.LengthCount{{Bytes: 40, Count: 1}})
	m := driveFor(t, g, 5_000_000, 1)
	// 16 sources at 1 msg / 5 µs → 3.2 msg/µs aggregate.
	if math.Abs(m.MessageRate-3.2) > 0.2 {
		t.Fatalf("rate = %v, want ~3.2", m.MessageRate)
	}
}

func TestScaledDoublesRate(t *testing.T) {
	g := UniformPoisson(16, 5000, []stats.LengthCount{{Bytes: 40, Count: 1}})
	base := driveFor(t, g, 5_000_000, 2)
	double := driveFor(t, g.Scaled(2), 5_000_000, 2)
	ratio := double.MessageRate / base.MessageRate
	if ratio < 1.85 || ratio > 2.15 {
		t.Fatalf("rate ratio = %v, want ~2", ratio)
	}
	if double.MeanLatencyNS < base.MeanLatencyNS {
		t.Fatalf("latency fell under double load: %v -> %v", base.MeanLatencyNS, double.MeanLatencyNS)
	}
}

func TestScaledPanicsOnBadFactor(t *testing.T) {
	g := UniformPoisson(4, 1000, []stats.LengthCount{{Bytes: 8, Count: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive factor accepted")
		}
	}()
	g.Scaled(0)
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	g := UniformPoisson(16, 4000, []stats.LengthCount{{Bytes: 64, Count: 1}})
	var prev float64
	for _, f := range []float64{0.5, 1, 2, 4} {
		m := driveFor(t, g.Scaled(f), 3_000_000, 3)
		if m.MeanLatencyNS < prev*0.95 {
			t.Fatalf("latency not monotone in load: %v after %v (factor %v)", m.MeanLatencyNS, prev, f)
		}
		prev = m.MeanLatencyNS
	}
}
