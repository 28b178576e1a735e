package mg

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
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

// runDigest runs the solver at procs ranks and returns the bits of its
// residual norms and the SHA-256 of its trace in CSV form.
func runDigest(t *testing.T, cfg Config, procs int) (norms string, digest string) {
	t.Helper()
	w := mp.NewWorld(mp.DefaultConfig(procs))
	res, err := Run(w, cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Norms {
		norms += fmt.Sprintf("%016x ", math.Float64bits(v))
	}
	h := sha256.New()
	if err := w.Trace().WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return norms, fmt.Sprintf("%x", h.Sum(nil))
}

// TestHaloBuffersKeepResults pins the residual norms and the trace of
// runs at 2, 4 and 8 ranks to the values the solver gave when every
// exchange sent freshly allocated copies of its planes: sending from
// double-buffered halo planes must not change a bit.
func TestHaloBuffersKeepResults(t *testing.T) {
	cfg := Config{N: 16, Cycles: 3, PreSmooth: 2, PostSmooth: 2, CoarseSmooth: 20, RngSeed: 7}
	want := map[int][2]string{
		2: {"4042a0e9bf58e9e3 400fac5d735450ba 3fe5e263e61865c3 3fcff7c3ffedfa10 ",
			"d0be4a876c2b453b5c4d7ce2515827bd466e8b7a4d94b8e6f0fa5ef778b47657"},
		4: {"4042a0e9bf58e9e3 400f3672a5027482 3fe3473bd91f4c9a 3fc700b31da3056c ",
			"53cf5706be47f787b7543b761e87858018a97cc4c58962c84310394158a2bc81"},
		8: {"4042a0e9bf58e9e5 3ff97bd9277e208d 3fe8056bbcc2c33b 3fdab350975cefbe ",
			"eb07373299e406ccb069a6ac47bc5b5d421f1dc3a20375096e9f767055b98f6b"},
	}
	for procs, w := range want {
		if norms, digest := runDigest(t, cfg, procs); norms != w[0] || digest != w[1] {
			t.Errorf("%d ranks: norms %s trace %s, want norms %s trace %s", procs, norms, digest, w[0], w[1])
		}
	}
}

// TestHaloBuffersPerRankConstant requires the bytes a run allocates to
// grow with its V-cycles by much less than the planes its extra cycles
// send: each rank reuses two halo buffers per level rather than copying
// every plane it sends into a new one.
func TestHaloBuffersPerRankConstant(t *testing.T) {
	const procs = 4
	run := func(cycles int) (allocated, sent uint64) {
		cfg := Config{N: 32, Cycles: cycles, PreSmooth: 2, PostSmooth: 2, CoarseSmooth: 20, RngSeed: 7}
		w := mp.NewWorld(mp.DefaultConfig(procs))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(w, cfg, procs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		for _, evs := range w.Trace().Events {
			for _, e := range evs {
				if e.Op == trace.OpSend {
					sent += uint64(e.Bytes)
				}
			}
		}
		return after.TotalAlloc - before.TotalAlloc, sent
	}
	a1, s1 := run(1)
	a4, s4 := run(4)
	// Copying every plane out costs about 1.12 bytes per byte sent; the
	// halo buffers leave about 0.13, the messages' own bookkeeping.
	ratio := float64(a4-a1) / float64(s4-s1)
	if ratio > 0.5 {
		t.Fatalf("%.3f bytes allocated per byte sent by the extra cycles, want at most 0.5", ratio)
	}
	t.Logf("%.3f bytes allocated per byte sent by the extra cycles", ratio)
}
