package mesh

import (
	"testing"
	"testing/quick"

	"commchar/internal/sim"
)

func westFirstConfig(w, h int) Config {
	cfg := DefaultConfig(MeshTopology, w, h)
	cfg.Routing = RoutingWestFirst
	return cfg
}

func TestWestFirstValidation(t *testing.T) {
	if err := westFirstConfig(4, 4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := westFirstConfig(4, 4)
	bad.Topology = TorusTopology
	bad.VirtualChannels = 2
	if bad.Validate() == nil {
		t.Fatal("west-first on torus accepted")
	}
}

func TestWestFirstPathsAreMinimal(t *testing.T) {
	s := sim.New()
	cfg := westFirstConfig(4, 4)
	n := New(s, cfg)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			src, dst := src, dst
			n.Inject(Message{
				Src: src, Dst: dst, Bytes: 8,
				Inject: sim.Time((src*16 + dst) * 2000), // spaced out: no contention
			}, func(d Delivery) {
				if int(d.Hops) != manhattan(cfg, src, dst) {
					t.Errorf("%d->%d took %d hops, minimal %d", src, dst, d.Hops, manhattan(cfg, src, dst))
				}
			})
		}
	}
	mustRun(t, s)
}

func TestWestFirstConservationProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s := sim.New()
		n := New(s, westFirstConfig(4, 4))
		st := sim.NewStream(seed)
		const total = 400
		for i := 0; i < total; i++ {
			n.Inject(Message{
				ID: int64(i + 1), Src: st.IntN(16), Dst: st.IntN(16),
				Bytes: 1 + st.IntN(256), Inject: sim.Time(st.IntN(4000)),
			}, nil)
		}
		mustRun(t, s)
		return n.Delivered() == total && n.InFlight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWestFirstDeadlockFreedomUnderSaturation(t *testing.T) {
	s := sim.New()
	n := New(s, westFirstConfig(4, 4))
	// Saturating adversarial pattern including the cyclic shifts that
	// break non-turn-model adaptive routers.
	for round := 0; round < 60; round++ {
		for src := 0; src < 16; src++ {
			n.Inject(Message{
				Src: src, Dst: (src + 5) % 16,
				Bytes: 512, Inject: sim.Time(round * 20),
			}, nil)
		}
	}
	mustRun(t, s)
	if n.InFlight() != 0 {
		t.Fatalf("%d messages stuck", n.InFlight())
	}
}

func TestWestFirstSpreadsLoadOffHotColumn(t *testing.T) {
	// Many concurrent east-bound messages with vertical freedom: the
	// adaptive router must reduce blocking versus deterministic XY.
	run := func(routing RoutingAlgorithm) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(MeshTopology, 4, 4)
		cfg.Routing = routing
		n := New(s, cfg)
		for round := 0; round < 40; round++ {
			// Column 0 sources all target the far corner region.
			for y := 0; y < 4; y++ {
				n.Inject(Message{
					Src: nodeAt(cfg, 0, y), Dst: nodeAt(cfg, 3, (y+2)%4),
					Bytes: 256, Inject: sim.Time(round * 100),
				}, nil)
			}
		}
		mustRun(t, s)
		var blocked sim.Duration
		for _, d := range n.Log() {
			blocked += d.Blocked
		}
		return blocked
	}
	xy := run(RoutingDimensionOrder)
	wf := run(RoutingWestFirst)
	if wf > xy {
		t.Fatalf("west-first blocked %d, XY blocked %d: adaptivity made it worse", wf, xy)
	}
}
