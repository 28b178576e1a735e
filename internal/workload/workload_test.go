package workload

import (
	"math"
	"testing"

	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
)

// knownLog builds a delivery log from a known generative model so the
// round-trip (characterize -> regenerate -> measure) can be validated.
func knownLog(procs, perSource int, meanGapNS float64, seed uint64) ([]mesh.Delivery, sim.Time) {
	st := sim.NewStream(seed)
	var log []mesh.Delivery
	var maxT sim.Time
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
			if st.Float64() < 0.25 {
				bytes = 40
			}
			id++
			log = append(log, mesh.Delivery{
				ID: id, Src: int32(src), Dst: int32(dst), Bytes: bytes, Inject: t,
				End: t + 400, Hops: 3,
			})
			if t > maxT {
				maxT = t
			}
		}
	}
	return log, maxT
}

func characterized(t *testing.T, procs, perSource int, meanGap float64, seed uint64) *core.Characterization {
	t.Helper()
	log, elapsed := knownLog(procs, perSource, meanGap, seed)
	c, err := core.Analyze("known", core.StrategyDynamic, log, procs, elapsed, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFromCharacterization(t *testing.T) {
	c := characterized(t, 8, 2000, 8000, 1)
	g, err := FromCharacterization(c)
	if err != nil {
		t.Fatal(err)
	}
	if g.Procs != 8 || len(g.Sources) != 8 {
		t.Fatalf("generator: procs=%d sources=%d", g.Procs, len(g.Sources))
	}
	for _, sm := range g.Sources {
		if sm.Interarrival == nil || len(sm.Lengths) == 0 {
			t.Fatalf("incomplete source model %+v", sm)
		}
	}
}

func TestSyntheticReproducesRateAndSpatial(t *testing.T) {
	c := characterized(t, 8, 4000, 8000, 2)
	g, err := FromCharacterization(c)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(8)...))
	if err := g.Drive(s, net, c.Elapsed, 99); err != nil {
		t.Fatal(err)
	}
	mustRun(t, s)
	log := net.Log()
	// Message rate within 10%.
	origRate := float64(c.Messages) / float64(c.Elapsed)
	synRate := float64(len(log)) / float64(s.Now())
	if math.Abs(synRate-origRate)/origRate > 0.1 {
		t.Fatalf("rate: synthetic %v vs original %v", synRate, origRate)
	}
	// Spatial: destinations still uniform per source.
	counts := make([][]int, 8)
	for i := range counts {
		counts[i] = make([]int, 8)
	}
	for _, d := range log {
		counts[d.Src][d.Dst]++
	}
	// The χ² classifier is alpha-sensitive (a truly-uniform source is
	// rejected ~5% of the time), so check the robust invariant instead:
	// each source's destination entropy stays essentially maximal.
	for src := 0; src < 8; src++ {
		sd := stats.AnalyzeSpatial(src, counts[src])
		if sd.Entropy < 0.995 {
			t.Fatalf("source %d synthetic destination entropy %v", src, sd.Entropy)
		}
		if sd.Fractions[src] != 0 {
			t.Fatalf("source %d sent to itself", src)
		}
	}
	// Lengths: the bimodal spectrum survives.
	lengths := map[int]bool{}
	for _, d := range log {
		lengths[d.Bytes] = true
	}
	if !lengths[8] || !lengths[40] {
		t.Fatalf("synthetic lengths: %v", lengths)
	}
}

func TestValidateEndToEnd(t *testing.T) {
	c := characterized(t, 8, 4000, 8000, 3)
	v, err := Validate(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v.Synthetic.Messages == 0 {
		t.Fatal("no synthetic messages")
	}
	if v.RateErr > 0.15 {
		t.Fatalf("rate error %v", v.RateErr)
	}
	// The original log here used a fake constant latency, so only rate is
	// compared strictly; latency fields must at least be populated.
	if v.Synthetic.MeanLatencyNS <= 0 {
		t.Fatal("synthetic latency not measured")
	}
}

func TestBimodalSpatialModelRegenerates(t *testing.T) {
	// Hand-build a characterization-like spatial model and check sampling.
	sm := SourceModel{
		Src:          0,
		Interarrival: stats.Exponential{Rate: 0.001},
		Pattern:      stats.SpatialBimodalUniform,
		Favorite:     3,
		FavFrac:      0.5,
		DestWeights:  make([]float64, 8),
		Lengths:      []stats.LengthCount{{Bytes: 8, Count: 1}},
	}
	st := sim.NewStream(5)
	counts := make([]int, 8)
	for i := 0; i < 20000; i++ {
		counts[sm.sampleDest(st)]++
	}
	if counts[0] != 0 {
		t.Fatal("self-messages generated")
	}
	frac := float64(counts[3]) / 20000
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("favorite fraction %v, want ~0.5", frac)
	}
	sd := stats.AnalyzeSpatial(0, counts)
	if sd.Pattern != stats.SpatialBimodalUniform {
		t.Fatalf("regenerated pattern = %v", sd.Pattern)
	}
}

func TestSampleLengthWeights(t *testing.T) {
	spectrum := []stats.LengthCount{{Bytes: 8, Count: 3}, {Bytes: 40, Count: 1}}
	st := sim.NewStream(6)
	n8 := 0
	for i := 0; i < 40000; i++ {
		if sampleLength(spectrum, st) == 8 {
			n8++
		}
	}
	frac := float64(n8) / 40000
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("8-byte fraction %v, want ~0.75", frac)
	}
}

func TestFromCharacterizationErrors(t *testing.T) {
	if _, err := FromCharacterization(nil); err == nil {
		t.Fatal("nil characterization accepted")
	}
}
