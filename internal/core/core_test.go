package core

import (
	"context"
	"runtime"
	"slices"
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
				ID: id, Src: int32(src), Dst: int32(dst), Bytes: bytes, Inject: t,
				End: t + 500, Blocked: 0, Hops: 3,
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
	for _, c := range []struct {
		d    mesh.Delivery
		want string
	}{
		{mesh.Delivery{ID: 1, Src: 9, Dst: 0, Bytes: 8}, "core: delivery 1 endpoints 9->0 outside 4 processors"},
		// A delivery shorter than a byte could not have crossed the
		// network, and traffic regenerated from it would inject one.
		{mesh.Delivery{ID: 2, Src: 0, Dst: 1, Bytes: 0}, "core: delivery 2 has length 0"},
		{mesh.Delivery{ID: 3, Src: 0, Dst: 1, Bytes: -8}, "core: delivery 3 has length -8"},
	} {
		bad := append(syntheticLog(4, 20, 1000, 3), c.d)
		if _, err := Analyze("x", StrategyDynamic, bad, 4, 0, 0); err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
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

// TestInterarrivalsHelper pins sourceGaps' layout: each source's gaps in
// log order, source after source, and none for a source with one event.
func TestInterarrivalsHelper(t *testing.T) {
	var log []mesh.Delivery
	for _, e := range []struct {
		src int
		at  sim.Time
	}{{0, 10}, {2, 7}, {0, 30}, {0, 35}, {2, 9}, {0, 100}, {1, 5}} {
		log = append(log, mesh.Delivery{Src: int32(e.src), Inject: e.at})
	}
	pooled, off := sourceGaps(log, []int{4, 1, 2})
	if want := []float64{20, 5, 65, 2}; !slices.Equal(pooled, want) {
		t.Fatalf("pooled gaps = %v, want %v", pooled, want)
	}
	if want := []int{0, 3, 3, 4}; !slices.Equal(off, want) {
		t.Fatalf("offsets = %v, want %v", off, want)
	}
}

// TestAnalyzeBytesPerDelivery bounds what Analyze allocates per delivery:
// the slope of its bytes between n and 4n deliveries per source, so the
// fixed cost of the fits (their ECDF points and DUD state) cancels out.
// Each sample built once at its final size and fitted from its Counts,
// with message lengths counted rather than collected, costs about 15
// bytes a delivery: the pooled gaps, and the Counts of these mostly
// distinct gaps, per source and pooled. A sorted copy of every sample
// cost about 24; growing buffers by append and sorting each sample twice
// cost about 190.
func TestAnalyzeBytesPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("fits four 16-source logs")
	}
	const procs, n = 16, 2000
	allocated := func(perSource int) uint64 {
		// In (Inject, ID) order, as Network.Log returns it, so Analyze
		// shares the log rather than cloning it.
		log := syntheticLog(procs, perSource, 1000, 5)
		slices.SortFunc(log, deliveryOrder)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Analyze("bytes", StrategyDynamic, log, procs, 1, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(n), allocated(4*n)
	slope := (float64(large) - float64(small)) / float64(3*n*procs)
	if slope > 64 {
		t.Fatalf("Analyze allocates %.1f bytes per delivery (%d bytes at %d deliveries per source, %d at %d), want at most 64",
			slope, small, n, large, 4*n)
	}
	t.Logf("%.1f bytes per delivery", slope)
}

// TestAnalyzeBytesPerGap bounds what Analyze allocates per inter-arrival
// gap beyond the 8 bytes of sourceGaps' pooled sample, on
// BenchmarkAnalyzeSkewed's log in (Inject, ID) order, as Network.Log
// returns it: the slope of its bytes between 5,000 and 20,000 gaps per
// source. Fitting from Counts sorts each source's gaps in place and
// merges their Counts into the pooled one, so only the Counts grow, with
// the distinct values; a sorted copy of every source's sample and of the
// pooled one would add 16 bytes a gap.
func TestAnalyzeBytesPerGap(t *testing.T) {
	if testing.Short() {
		t.Skip("fits two 16-source logs of up to 320,000 gaps")
	}
	const maxBeyond = 4.0
	allocated := func(perSource int) uint64 {
		log := skewedLog(perSource + 1)
		slices.SortFunc(log, deliveryOrder)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Analyze("skewed", StrategyDynamic, log, 16, 1<<40, 0.1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const small, large = 5000, 20000
	a, b := allocated(small), allocated(large)
	beyond := (float64(b)-float64(a))/float64(16*(large-small)) - 8
	if beyond > maxBeyond {
		t.Fatalf("Analyze allocates %.1f bytes per gap beyond the pooled gaps (%d bytes at %d gaps per source, %d at %d), want at most %.0f",
			beyond, a, small, b, large, maxBeyond)
	}
	t.Logf("%.2f bytes per gap beyond the pooled gaps", beyond)
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
