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
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(g.Procs)...))
	if err := g.Drive(s, net, until, seed); err != nil {
		t.Fatal(err)
	}
	s.Run()
	return MeasureLog(net.Log(), s.Now(), net.MeanUtilization())
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

func TestMeanLength(t *testing.T) {
	ls := []stats.LengthCount{{Bytes: 8, Count: 3}, {Bytes: 40, Count: 1}}
	if got := MeanLength(ls); math.Abs(got-16) > 1e-12 {
		t.Fatalf("mean length = %v, want 16", got)
	}
	if MeanLength(nil) != 0 {
		t.Fatal("empty spectrum mean should be 0")
	}
}
