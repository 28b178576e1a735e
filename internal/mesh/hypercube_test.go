package mesh

import (
	"math/bits"
	"testing"
	"testing/quick"

	"commchar/internal/sim"
)

func TestHypercubeConfig(t *testing.T) {
	cfg := DefaultConfig(HypercubeTopology, 4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Fabric().Endpoints() != 16 {
		t.Fatalf("nodes = %d", cfg.Fabric().Endpoints())
	}
	if DefaultConfig(HypercubeTopology, 0).Validate() == nil {
		t.Fatal("0-cube accepted")
	}
	if DefaultConfig(HypercubeTopology, 25).Validate() == nil {
		t.Fatal("25-cube accepted")
	}
}

func TestHypercubeHopsAreHammingDistance(t *testing.T) {
	s := sim.New()
	n := New(s, DefaultConfig(HypercubeTopology, 4))
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			want := bits.OnesCount(uint(src ^ dst))
			if got := n.Hops(src, dst); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
}

func TestHypercubeECubeOrder(t *testing.T) {
	// e-cube corrects bits from LSB to MSB; the route must be contiguous
	// and flip one new dimension per hop, in ascending order.
	s := sim.New()
	n := New(s, DefaultConfig(HypercubeTopology, 4))
	path := n.route(0b0101, 0b1010) // differs in all four bits
	if len(path) != 4 {
		t.Fatalf("path length %d", len(path))
	}
	cur := 0b0101
	lastDim := -1
	for _, h := range path {
		if h.link.from != cur {
			t.Fatal("route not contiguous")
		}
		dim := bits.TrailingZeros(uint(h.link.from ^ h.link.to))
		if dim <= lastDim {
			t.Fatalf("dimension order violated: %d after %d", dim, lastDim)
		}
		lastDim = dim
		cur = h.link.to
	}
	if cur != 0b1010 {
		t.Fatalf("route ends at %b", cur)
	}
}

func TestHypercubeUncontendedLatency(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(HypercubeTopology, 3)
	n := New(s, cfg)
	var d Delivery
	n.Inject(Message{Src: 0, Dst: 7, Bytes: 8, Inject: 0}, func(x Delivery) { d = x })
	mustRun(t, s)
	hopTime := cfg.CycleTime * sim.Duration(1+cfg.RouterDelay)
	want := 3*hopTime + sim.Duration(cfg.Flits(8)-1)*cfg.CycleTime
	if d.Latency() != want {
		t.Fatalf("latency = %d, want %d", d.Latency(), want)
	}
}

func TestHypercubeConservationProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s := sim.New()
		n := New(s, DefaultConfig(HypercubeTopology, 4))
		st := sim.NewStream(seed)
		const total = 300
		for i := 0; i < total; i++ {
			n.Inject(Message{
				ID: int64(i), Src: st.IntN(16), Dst: st.IntN(16),
				Bytes: 1 + st.IntN(256), Inject: sim.Time(st.IntN(5000)),
			}, nil)
		}
		mustRun(t, s)
		return n.Delivered() == total && n.InFlight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHypercubeDeadlockFreedomUnderLoad(t *testing.T) {
	s := sim.New()
	n := New(s, DefaultConfig(HypercubeTopology, 4))
	// Adversarial: every node sends long messages to its complement.
	for round := 0; round < 30; round++ {
		for src := 0; src < 16; src++ {
			n.Inject(Message{Src: src, Dst: src ^ 15, Bytes: 512, Inject: sim.Time(round * 50)}, nil)
		}
	}
	mustRun(t, s)
	if n.InFlight() != 0 {
		t.Fatalf("%d messages stuck", n.InFlight())
	}
}

func TestHypercubeLinkCount(t *testing.T) {
	s := sim.New()
	n := New(s, DefaultConfig(HypercubeTopology, 4))
	n.Inject(Message{Src: 0, Dst: 15, Bytes: 8, Inject: 0}, nil)
	mustRun(t, s)
	// d·2^d directed links: 4·16 = 64.
	if got := len(n.LinkStats()); got != 64 {
		t.Fatalf("links = %d, want 64", got)
	}
}

func TestHypercubeMeanHopAdvantage(t *testing.T) {
	// For 16 nodes, a 4-cube has lower mean distance than a 4x4 mesh:
	// the topology comparison the ablations rely on.
	s1 := sim.New()
	cube := New(s1, DefaultConfig(HypercubeTopology, 4))
	s2 := sim.New()
	grid := New(s2, DefaultConfig(MeshTopology, 4, 4))
	var cubeSum, gridSum int
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			cubeSum += cube.Hops(src, dst)
			gridSum += grid.Hops(src, dst)
		}
	}
	if cubeSum >= gridSum {
		t.Fatalf("hypercube mean distance %d not below mesh %d", cubeSum, gridSum)
	}
}
