package core

import (
	"context"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/spasm"
	"commchar/internal/stats"
)

// syntheticLog builds a log with known temporal/spatial/volume structure:
// exponential inter-arrivals from each source, uniform destinations,
// bimodal lengths.
func syntheticLog(procs, perSource int, meanGapNS float64, seed uint64) []mesh.Delivery {
	st := sim.NewStream(seed)
	var log []mesh.Delivery
	id := int64(0)
	for src := 0; src < procs; src++ {
		t := sim.Time(0)
		for i := 0; i < perSource; i++ {
			t += sim.Time(st.Exponential(meanGapNS)) + 1
			dst := st.IntN(procs - 1)
			if dst >= src {
				dst++
			}
			bytes := 8
			if st.Float64() < 0.3 {
				bytes = 40
			}
			id++
			log = append(log, mesh.Delivery{
				Message: mesh.Message{ID: id, Src: src, Dst: dst, Bytes: bytes, Inject: t},
				End:     t + 500, Latency: 500, Blocked: 0, Hops: 3,
			})
		}
	}
	return log
}

func TestAnalyzeRecoversExponentialTemporal(t *testing.T) {
	log := syntheticLog(8, 4000, 10000, 1)
	c, err := Analyze("synthetic", StrategyDynamic, log, 8, 1<<40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Messages != len(log) {
		t.Fatalf("messages = %d", c.Messages)
	}
	best := c.BestAggregate()
	if best == nil {
		t.Fatal("no aggregate fit")
	}
	if best.Dist.Name() != "exponential" && best.R2 < 0.995 {
		t.Fatalf("aggregate best = %s (R²=%v)", best.Dist, best.R2)
	}
	// The exponential family itself must fit nearly perfectly.
	for _, f := range c.Aggregate.Fits {
		if f.Dist.Name() == "exponential" {
			if f.R2 < 0.99 {
				t.Fatalf("exponential R² = %v", f.R2)
			}
			// Mean of the fit should match the generator.
			if m := f.Dist.Mean(); m < 9000 || m > 11000 {
				t.Fatalf("fitted mean %v, want ~10000", m)
			}
		}
	}
}

func TestAnalyzeSpatialUniform(t *testing.T) {
	log := syntheticLog(8, 4000, 10000, 2)
	c, err := Analyze("synthetic", StrategyDynamic, log, 8, 1<<40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pattern, n := c.DominantSpatial()
	if pattern != stats.SpatialUniform {
		t.Fatalf("dominant pattern = %v (%d sources)", pattern, n)
	}
}

func TestAnalyzeVolumeBimodal(t *testing.T) {
	log := syntheticLog(4, 2000, 5000, 3)
	c, err := Analyze("synthetic", StrategyDynamic, log, 4, 1<<40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Volume.Bimodal {
		t.Fatalf("volume profile = %+v", c.Volume)
	}
	if c.Volume.Distinct[0].Bytes != 8 {
		t.Fatalf("dominant length = %d, want 8", c.Volume.Distinct[0].Bytes)
	}
}

func TestAnalyzePerSourceCoverage(t *testing.T) {
	log := syntheticLog(8, 1000, 10000, 4)
	c, err := Analyze("synthetic", StrategyDynamic, log, 8, 1<<40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.PerSource) != 8 {
		t.Fatalf("per-source entries = %d", len(c.PerSource))
	}
	for _, s := range c.PerSource {
		if s.Best() == nil {
			t.Fatalf("source %d has no fit (%d samples)", s.Src, s.Samples)
		}
	}
}

func TestAnalyzeRejectsEmptyAndBadLogs(t *testing.T) {
	if _, err := Analyze("x", StrategyDynamic, nil, 4, 0, 0); err == nil {
		t.Fatal("empty log accepted")
	}
	bad := []mesh.Delivery{{Message: mesh.Message{ID: 1, Src: 9, Dst: 0, Bytes: 8}}}
	if _, err := Analyze("x", StrategyDynamic, bad, 4, 0, 0); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestCharacterizeSharedMemoryEndToEnd(t *testing.T) {
	c, err := CharacterizeSharedMemory(context.Background(), "toy", 4, func(m *spasm.Machine) error {
		arr := m.NewArray(512, 8)
		_, err := m.Run(func(e *spasm.Env) {
			st := sim.NewStream(uint64(e.ID()))
			for i := 0; i < 200; i++ {
				e.ReadArray(arr, st.IntN(arr.Len()))
				e.Compute(sim.Duration(100 + st.IntN(500)))
			}
			e.Barrier()
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Strategy != StrategyDynamic || c.Messages == 0 {
		t.Fatalf("characterization: %+v", c)
	}
	if c.BestAggregate() == nil {
		t.Fatal("no aggregate fit from real run")
	}
	// Shared-memory traffic is control/data bimodal.
	if len(c.Volume.Distinct) < 2 {
		t.Fatalf("volume spectrum: %+v", c.Volume.Distinct)
	}
}

func TestCharacterizeMessagePassingEndToEnd(t *testing.T) {
	tr, err := AcquireMessagePassingWith(4, mp.AlgLinear, func(w *mp.World) error {
		_, err := w.Run(func(r *mp.Rank) {
			for i := 0; i < 30; i++ {
				r.Compute(sim.Duration(1000 * (r.ID() + 1)))
				r.Bcast(0, 256, nil)
				chunks := make([]any, r.Size())
				r.Alltoall(128, chunks)
			}
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ReplayTraceContext(context.Background(), tr, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(4)...), nil, nil, sim.Watchdog{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := raw.Characterize("toy-mp", StrategyStatic)
	if err != nil {
		t.Fatal(err)
	}
	if c.Strategy != StrategyStatic {
		t.Fatal("wrong strategy tag")
	}
	if c.Messages == 0 || c.BestAggregate() == nil {
		t.Fatal("static characterization incomplete")
	}
}

func TestInterarrivalsHelper(t *testing.T) {
	got := interarrivals([]sim.Time{10, 30, 35, 100})
	want := []float64{20, 5, 65}
	if len(got) != len(want) {
		t.Fatalf("gaps = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", got, want)
		}
	}
	if interarrivals([]sim.Time{5}) != nil {
		t.Fatal("single event should yield no gaps")
	}
}

// TestMeshFor pins the standard mesh geometry (mesh.DefaultGrid) that
// the default topology selector builds.
func TestMeshFor(t *testing.T) {
	if g := mesh.DefaultGrid(4); g[0] != 4 || g[1] != 1 {
		t.Fatalf("DefaultGrid(4) = %dx%d", g[0], g[1])
	}
	if g := mesh.DefaultGrid(16); g[0] != 4 || g[1] != 4 {
		t.Fatalf("DefaultGrid(16) = %dx%d", g[0], g[1])
	}
	if cfg := mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(8)...); cfg.Fabric().Endpoints() < 8 {
		t.Fatal("DefaultGrid(8) too small")
	}
}
