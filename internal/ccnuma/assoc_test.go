package ccnuma

import (
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// rigAssoc builds a system with the given associativity.
func rigAssoc(n, ways int) (*sim.Simulator, *mesh.Network, *System) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, (n+3)/4))
	cfg := DefaultConfig(n)
	cfg.Associativity = ways
	sys := New(s, net, cfg)
	return s, net, sys
}

func TestAssociativityValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Associativity = 3
	cfg.CacheBytes = 64 << 10 // 2048 lines, not divisible by 3
	if cfg.Validate() == nil {
		t.Fatal("non-dividing associativity accepted")
	}
	cfg.Associativity = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoWayAvoidsConflictMiss(t *testing.T) {
	// Two blocks mapping to the same set: direct-mapped thrashes, 2-way
	// holds both.
	run := func(ways int) Stats {
		s, _, sys := rigAssoc(4, ways)
		span := sys.cfg.CacheBytes * 2 / sys.cfg.ways()
		a := sys.Alloc(span + sys.cfg.LineBytes)
		// Same set: one whole cache apart (per way count).
		setStride := uint64(sys.cfg.CacheBytes / sys.cfg.ways())
		b := a + setStride
		proc := (sys.Home(a) + 1) % 4
		s.Spawn("p", func(p *sim.Process) {
			for i := 0; i < 10; i++ {
				sys.Read(p, proc, a)
				sys.Read(p, proc, b)
			}
		})
		s.Run()
		return sys.Stats()
	}
	dm := run(1)
	twoWay := run(2)
	if dm.ReadMisses != 20 {
		t.Fatalf("direct-mapped misses = %d, want 20 (thrash)", dm.ReadMisses)
	}
	if twoWay.ReadMisses != 2 {
		t.Fatalf("2-way misses = %d, want 2 (cold only)", twoWay.ReadMisses)
	}
}

func TestLRUReplacesOldest(t *testing.T) {
	s, _, sys := rigAssoc(4, 2)
	setStride := uint64(sys.cfg.CacheBytes / sys.cfg.ways())
	base := sys.Alloc(int(3*setStride) + sys.cfg.LineBytes)
	a, b, c := base, base+setStride, base+2*setStride // same set, 3 blocks, 2 ways
	proc := (sys.Home(a) + 1) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, proc, a) // {a}
		sys.Read(p, proc, b) // {a,b}
		sys.Read(p, proc, a) // touch a: LRU order b,a
		sys.Read(p, proc, c) // evicts b
		sys.Read(p, proc, a) // must still hit
	})
	s.Run()
	st := sys.Stats()
	// Misses: a, b, c cold. Hits: a (twice).
	if st.ReadMisses != 3 || st.ReadHits != 2 {
		t.Fatalf("stats = %+v, want 3 misses / 2 hits", st)
	}
	if _, ok := sys.caches[proc].lookup(sys.block(b)); ok {
		t.Fatal("LRU kept the wrong line (b survived)")
	}
	if _, ok := sys.caches[proc].lookup(sys.block(a)); !ok {
		t.Fatal("recently-used line a was evicted")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAssociativeInvariantsUnderStorm(t *testing.T) {
	s, net, sys := rigAssoc(8, 4)
	heap := sys.Alloc(8192)
	st := sim.NewStream(3)
	for proc := 0; proc < 8; proc++ {
		proc := proc
		s.Spawn("p", func(p *sim.Process) {
			for i := 0; i < 80; i++ {
				addr := heap + uint64(st.IntN(8192/8)*8)
				if st.Float64() < 0.4 {
					sys.Write(p, proc, addr)
				} else {
					sys.Read(p, proc, addr)
				}
				p.Hold(sim.Duration(st.IntN(100)))
			}
		})
	}
	s.Run()
	if net.InFlight() != 0 {
		t.Fatal("in-flight messages remain")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
