package fft3d

import (
	"math/cmplx"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

func TestReferenceAgainstDirectDFT(t *testing.T) {
	cfg := Config{NX: 4, NY: 4, NZ: 4, RngSeed: 1}
	fast := Reference(cfg)
	direct := ReferenceDirect(cfg)
	for i := range direct {
		if cmplx.Abs(fast[i]-direct[i]) > 1e-8 {
			t.Fatalf("Reference[%d] = %v, direct %v", i, fast[i], direct[i])
		}
	}
}

func TestParallelMatchesReference(t *testing.T) {
	cfg := Config{NX: 8, NY: 8, NZ: 8, Iterations: 1, RngSeed: 2}
	const procs = 4
	w := mp.NewWorld(mp.DefaultConfig(procs))
	res, err := Run(w, cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(cfg)
	for i := range want {
		if cmplx.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("X[%d] = %v, want %v", i, res.X[i], want[i])
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestMultipleIterationsStillCorrect(t *testing.T) {
	cfg := Config{NX: 8, NY: 8, NZ: 8, Iterations: 3, RngSeed: 3}
	const procs = 8
	w := mp.NewWorld(mp.DefaultConfig(procs))
	res, err := Run(w, cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(cfg)
	for i := range want {
		if cmplx.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("X[%d] diverged after iterations", i)
		}
	}
}

func TestTraceReplaysAndRootIsFavorite(t *testing.T) {
	cfg := Config{NX: 8, NY: 8, NZ: 8, Iterations: 2, RngSeed: 4}
	const procs = 8
	w := mp.NewWorld(mp.DefaultConfig(procs))
	if _, err := Run(w, cfg, procs); err != nil {
		t.Fatal(err)
	}
	tr := w.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Replay through the mesh.
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 2))
	if err := trace.Replay(s, net, tr, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if int(net.Delivered()) != tr.Messages() {
		t.Fatalf("replayed %d of %d", net.Delivered(), tr.Messages())
	}
	// Rank 0 roots bcast/reduce/gather: every rank sends to 0 more than
	// to any single other peer (checksum + gather traffic), while the
	// alltoall keeps the volume spread.
	for src := 1; src < procs; src++ {
		to := make(map[int]int)
		for _, e := range tr.Events[src] {
			if e.Op == trace.OpSend {
				to[e.Peer]++
			}
		}
		for peer, c := range to {
			if peer != 0 && c > to[0] {
				t.Fatalf("rank %d sent %d to %d but only %d to root", src, c, peer, to[0])
			}
		}
	}
}

func TestRejectsBadGeometry(t *testing.T) {
	w := mp.NewWorld(mp.DefaultConfig(4))
	if _, err := Run(w, Config{NX: 6, NY: 8, NZ: 8}, 4); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	w2 := mp.NewWorld(mp.DefaultConfig(3))
	if _, err := Run(w2, Config{NX: 8, NY: 8, NZ: 8}, 3); err == nil {
		t.Fatal("indivisible decomposition accepted")
	}
}
