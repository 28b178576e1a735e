package mg

import (
	"math"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

func TestResidualDecreases(t *testing.T) {
	cfg := Config{N: 16, Cycles: 4, PreSmooth: 2, PostSmooth: 2, CoarseSmooth: 40, RngSeed: 1}
	const procs = 4
	w := mp.NewWorld(mp.DefaultConfig(procs))
	res, err := Run(w, cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Norms) != cfg.Cycles+1 {
		t.Fatalf("norm history length %d", len(res.Norms))
	}
	for i := 1; i < len(res.Norms); i++ {
		if res.Norms[i] >= res.Norms[i-1] {
			t.Fatalf("residual did not decrease at cycle %d: %v", i, res.Norms)
		}
	}
	if res.Norms[len(res.Norms)-1] > 0.35*res.Norms[0] {
		t.Fatalf("weak convergence: %v", res.Norms)
	}
}

func TestMatchesSingleRank(t *testing.T) {
	// Pin the hierarchy depth with CoarsestN so every decomposition does
	// the same arithmetic.
	cfg := Config{N: 16, Cycles: 3, PreSmooth: 2, PostSmooth: 2, CoarseSmooth: 30, CoarsestN: 8, RngSeed: 2}
	run := func(procs int) []float64 {
		w := mp.NewWorld(mp.DefaultConfig(procs))
		res, err := Run(w, cfg, procs)
		if err != nil {
			t.Fatalf("%d procs: %v", procs, err)
		}
		return res.Norms
	}
	one := run(1)
	two := run(2)
	four := run(4)
	for i := range one {
		if math.Abs(one[i]-four[i]) > 1e-9*one[0] || math.Abs(one[i]-two[i]) > 1e-9*one[0] {
			t.Fatalf("norms diverge across decompositions: %v vs %v vs %v", one, two, four)
		}
	}
}

func TestNearestNeighbourPattern(t *testing.T) {
	cfg := Config{N: 16, Cycles: 2, PreSmooth: 2, PostSmooth: 2, CoarseSmooth: 10, RngSeed: 3}
	const procs = 8
	w := mp.NewWorld(mp.DefaultConfig(procs))
	if _, err := Run(w, cfg, procs); err != nil {
		t.Fatal(err)
	}
	tr := w.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ghost exchanges dominate: most point-to-point bytes go to the two
	// z-neighbours.
	for src := 0; src < procs; src++ {
		bytesTo := map[int]int{}
		for _, e := range tr.Events[src] {
			if e.Op == trace.OpSend {
				bytesTo[e.Peer] += e.Bytes
			}
		}
		up, down := (src+1)%procs, (src-1+procs)%procs
		neighbour := bytesTo[up] + bytesTo[down]
		var rest int
		for p, b := range bytesTo {
			if p != up && p != down {
				rest += b
			}
		}
		if neighbour <= rest {
			t.Fatalf("rank %d: neighbour bytes %d <= other bytes %d", src, neighbour, rest)
		}
	}
}

func TestMessageSizesAreLevelDependent(t *testing.T) {
	cfg := Config{N: 16, Cycles: 1, PreSmooth: 1, PostSmooth: 1, CoarseSmooth: 4, RngSeed: 4}
	const procs = 4
	w := mp.NewWorld(mp.DefaultConfig(procs))
	if _, err := Run(w, cfg, procs); err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, seq := range w.Trace().Events {
		for _, e := range seq {
			if e.Op == trace.OpSend && e.Bytes > 64 {
				sizes[e.Bytes] = true
			}
		}
	}
	// 16³ with 4 ranks coarsens to 8³: at least two plane sizes
	// (16²·8 = 2048B and 8²·8 = 512B).
	if !sizes[2048] || !sizes[512] {
		t.Fatalf("plane sizes seen: %v", sizes)
	}
}

func TestTraceReplays(t *testing.T) {
	cfg := Config{N: 16, Cycles: 2, PreSmooth: 1, PostSmooth: 1, CoarseSmooth: 4, RngSeed: 5}
	const procs = 8
	w := mp.NewWorld(mp.DefaultConfig(procs))
	if _, err := Run(w, cfg, procs); err != nil {
		t.Fatal(err)
	}
	tr := w.Trace()
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 2))
	if err := trace.Replay(s, net, tr, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if int(net.Delivered()) != tr.Messages() {
		t.Fatalf("replayed %d of %d", net.Delivered(), tr.Messages())
	}
}

func TestRejectsBadGeometry(t *testing.T) {
	w := mp.NewWorld(mp.DefaultConfig(4))
	if _, err := Run(w, Config{N: 12, Cycles: 1}, 4); err == nil {
		t.Fatal("non-power-of-two grid accepted")
	}
	w2 := mp.NewWorld(mp.DefaultConfig(3))
	if _, err := Run(w2, Config{N: 16, Cycles: 1}, 3); err == nil {
		t.Fatal("non-power-of-two ranks accepted")
	}
	w3 := mp.NewWorld(mp.DefaultConfig(16))
	if _, err := Run(w3, Config{N: 16, Cycles: 1}, 16); err == nil {
		t.Fatal("one-plane-per-rank grid accepted")
	}
}

func TestRHSZeroMean(t *testing.T) {
	f := RHS(Config{N: 8, RngSeed: 6})
	var sum float64
	for _, v := range f {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("RHS mean = %v", sum/float64(len(f)))
	}
}
