package analytic

import (
	"math"
	"testing"

	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
	"commchar/internal/workload"
)

var testLengths = []stats.LengthCount{{Bytes: 40, Count: 1}}

func TestZeroLoadLatencyMatchesSimulator(t *testing.T) {
	// At vanishing load the model's T0 must equal the simulator's
	// uncontended latency for the same flow.
	cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	w := &Workload{Procs: 16, Lengths: testLengths,
		Flows: []Flow{{Src: 0, Dst: 15, Rate: 1e-9}}}
	pred, err := Predict(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	net := mesh.New(s, cfg)
	var d mesh.Delivery
	net.Inject(mesh.Message{Src: 0, Dst: 15, Bytes: 40, Inject: 0},
		func(x mesh.Delivery) { d = x })
	s.Run()
	if math.Abs(pred.T0-float64(d.Latency())) > 1 {
		t.Fatalf("analytic T0 = %v, simulator = %v", pred.T0, d.Latency())
	}
	if pred.Contention > 1 {
		t.Fatalf("contention at vanishing load = %v", pred.Contention)
	}
}

func TestContentionGrowsWithLoad(t *testing.T) {
	cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	base := Uniform(16, 1.0/20000, testLengths) // 1 msg / 20 µs / source
	var prev float64
	for _, f := range []float64{1, 4, 16, 40} {
		pred, err := Predict(base.Scale(f), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Contention < prev {
			t.Fatalf("contention fell with load at factor %v", f)
		}
		prev = pred.Contention
	}
}

func TestSaturationDetected(t *testing.T) {
	cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	// Absurd load: every source sends every 100 ns.
	w := Uniform(16, 1.0/100, testLengths)
	pred, err := Predict(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Saturated || pred.MaxRho < 1 {
		t.Fatalf("saturation missed: %+v", pred)
	}
}

func TestPredictionTracksSimulatorUniform(t *testing.T) {
	// Moderate uniform load: the analytic latency must agree with the
	// simulator within modeling error (±35%).
	cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	const meanGap = 4000.0 // ns per source
	aw := Uniform(16, 1/meanGap, testLengths)
	pred, err := Predict(aw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.UniformPoisson(16, meanGap, testLengths)
	s := sim.New()
	net := mesh.New(s, cfg)
	if err := g.Drive(s, net, 4_000_000, 7); err != nil {
		t.Fatal(err)
	}
	s.Run()
	m := workload.MeasureLog(net.Log(), s.Now(), net.MeanUtilization())
	relErr := math.Abs(pred.Latency-m.MeanLatencyNS) / m.MeanLatencyNS
	if relErr > 0.35 {
		t.Fatalf("analytic %v ns vs simulated %v ns (err %.0f%%)",
			pred.Latency, m.MeanLatencyNS, 100*relErr)
	}
}

func TestFromCharacterization(t *testing.T) {
	// Build a characterization with known per-source rates and verify the
	// extracted flows reproduce them.
	st := sim.NewStream(9)
	var log []mesh.Delivery
	id := int64(0)
	for src := 0; src < 4; src++ {
		tm := sim.Time(0)
		for i := 0; i < 500; i++ {
			tm += sim.Time(st.Exponential(2000)) + 1
			dst := st.IntN(3)
			if dst >= src {
				dst++
			}
			id++
			log = append(log, mesh.Delivery{
				ID: id, Src: int32(src), Dst: int32(dst), Bytes: 40, Inject: tm,
				End: tm + 300, Hops: 2,
			})
		}
	}
	c, err := core.Analyze("known", core.StrategyDynamic, log, 4, 1_200_000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := FromCharacterization(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Predict(w, mesh.DefaultConfig(mesh.MeshTopology, 2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestPredictErrors(t *testing.T) {
	if _, err := FromCharacterization(nil); err == nil {
		t.Fatal("nil characterization accepted")
	}
	w := Uniform(16, 1e-6, testLengths)
	if _, err := Predict(w, mesh.DefaultConfig(mesh.MeshTopology, 2, 2)); err == nil {
		t.Fatal("16 processors on 4 nodes accepted")
	}
	w.Lengths = nil
	if _, err := Predict(w, mesh.DefaultConfig(mesh.MeshTopology, 4, 4)); err == nil {
		t.Fatal("empty length spectrum accepted")
	}
}
