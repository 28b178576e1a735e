package mesh

import (
	"testing"
	"testing/quick"

	"commchar/internal/sim"
)

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// coord converts a node index into (x, y) coordinates of a 2-D grid.
func coord(cfg Config, node int) (x, y int) {
	return node % cfg.Dims[0], node / cfg.Dims[0]
}

// nodeAt converts (x, y) coordinates of a 2-D grid into a node index.
func nodeAt(cfg Config, x, y int) int {
	return y*cfg.Dims[0] + x
}

func manhattan(cfg Config, src, dst int) int {
	x1, y1 := coord(cfg, src)
	x2, y2 := coord(cfg, dst)
	return abs(x1-x2) + abs(y1-y2)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(MeshTopology, 4, 4).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(MeshTopology, 0, 4)
	if bad.Validate() == nil {
		t.Fatal("zero-width config accepted")
	}
	torus := DefaultConfig(MeshTopology, 4, 4)
	torus.Topology = TorusTopology
	if torus.Validate() == nil {
		t.Fatal("torus with one VC accepted")
	}
	torus.VirtualChannels = 2
	if err := torus.Validate(); err != nil {
		t.Fatalf("torus with 2 VCs rejected: %v", err)
	}
}

func TestFlitCount(t *testing.T) {
	cfg := DefaultConfig(MeshTopology, 4, 4) // 8-byte flits, 1 header flit
	cases := []struct{ bytes, want int }{
		{1, 2}, {8, 2}, {9, 3}, {32, 5}, {40, 6},
	}
	for _, c := range cases {
		if got := cfg.Flits(c.bytes); got != c.want {
			t.Errorf("Flits(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestRouteIsXYAndMinimal(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 4, 4)
	n := New(s, cfg)
	for src := 0; src < cfg.Fabric().Endpoints(); src++ {
		for dst := 0; dst < cfg.Fabric().Endpoints(); dst++ {
			if src == dst {
				if n.Hops(src, dst) != 0 {
					t.Fatalf("Hops(%d,%d) != 0", src, dst)
				}
				continue
			}
			path := n.route(src, dst)
			if len(path) != manhattan(cfg, src, dst) {
				t.Fatalf("route %d->%d has %d hops, want %d", src, dst, len(path), manhattan(cfg, src, dst))
			}
			// XY discipline: once a Y move happens, no more X moves.
			seenY := false
			cur := src
			for _, h := range path {
				if h.link.from != cur {
					t.Fatalf("route %d->%d not contiguous", src, dst)
				}
				cx, _ := coord(cfg, h.link.from)
				nx, _ := coord(cfg, h.link.to)
				if cx != nx {
					if seenY {
						t.Fatalf("route %d->%d moves X after Y", src, dst)
					}
				} else {
					seenY = true
				}
				cur = h.link.to
			}
			if cur != dst {
				t.Fatalf("route %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestRouteCacheReusesPath(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 4, 4)
	n := New(s, cfg)
	first := n.route(0, 15)
	second := n.route(0, 15)
	if len(first) == 0 || len(second) != len(first) {
		t.Fatalf("cached route differs: %d vs %d hops", len(second), len(first))
	}
	if &first[0] != &second[0] {
		t.Error("route(0,15) recomputed instead of returning the cached path")
	}
	// The cache must not leak into the public accessors' results.
	p1 := n.Path(0, 15)
	p2 := n.Path(0, 15)
	if &p1[0] == &p2[0] {
		t.Error("Path returns the cached backing array; callers could corrupt it")
	}
	if n.Hops(0, 15) != manhattan(cfg, 0, 15) {
		t.Errorf("Hops(0,15) = %d, want %d", n.Hops(0, 15), manhattan(cfg, 0, 15))
	}
}

func TestUncontendedLatency(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 4, 4)
	n := New(s, cfg)
	var got Delivery
	m := Message{ID: 1, Src: 0, Dst: 15, Bytes: 8, Inject: 0}
	n.Inject(m, func(d Delivery) { got = d })
	s.Run()
	hops := manhattan(cfg, 0, 15) // 6
	flits := cfg.Flits(8)         // 2
	hopTime := cfg.CycleTime * sim.Duration(1+cfg.RouterDelay)
	want := sim.Duration(hops)*hopTime + sim.Duration(flits-1)*cfg.CycleTime
	if got.Latency != want {
		t.Fatalf("latency = %d, want %d", got.Latency, want)
	}
	if got.Blocked != 0 {
		t.Fatalf("blocked = %d, want 0 on idle network", got.Blocked)
	}
	if got.Hops != hops {
		t.Fatalf("hops = %d, want %d", got.Hops, hops)
	}
}

func TestLocalDelivery(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 2, 2)
	n := New(s, cfg)
	var got Delivery
	n.Inject(Message{ID: 1, Src: 3, Dst: 3, Bytes: 100, Inject: 10}, func(d Delivery) { got = d })
	s.Run()
	if got.Latency != cfg.LocalDelay {
		t.Fatalf("local latency = %d, want %d", got.Latency, cfg.LocalDelay)
	}
	if got.Hops != 0 {
		t.Fatalf("local hops = %d", got.Hops)
	}
}

func TestContentionSerializes(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 4, 1) // a line: 0-1-2-3
	n := New(s, cfg)
	var a, b Delivery
	// Two long messages over the same path, injected simultaneously.
	n.Inject(Message{ID: 1, Src: 0, Dst: 3, Bytes: 256, Inject: 0}, func(d Delivery) { a = d })
	n.Inject(Message{ID: 2, Src: 0, Dst: 3, Bytes: 256, Inject: 0}, func(d Delivery) { b = d })
	s.Run()
	if a.Blocked != 0 {
		t.Fatalf("first message blocked %d", a.Blocked)
	}
	if b.Blocked == 0 {
		t.Fatal("second message saw no contention")
	}
	if b.End <= a.End {
		t.Fatalf("second message finished at %d, first at %d", b.End, a.End)
	}
	if b.Latency <= a.Latency {
		t.Fatal("contended message not slower")
	}
}

func TestVirtualChannelsReduceBlocking(t *testing.T) {
	run := func(vcs int) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(MeshTopology, 4, 1)
		cfg.VirtualChannels = vcs
		n := New(s, cfg)
		// A long message 0->3 and a short one 1->2 that shares link 1->2.
		var short Delivery
		n.Inject(Message{ID: 1, Src: 0, Dst: 3, Bytes: 1024, Inject: 0}, nil)
		n.Inject(Message{ID: 2, Src: 1, Dst: 2, Bytes: 8, Inject: 100}, func(d Delivery) { short = d })
		s.Run()
		return short.Blocked
	}
	b1 := run(1)
	b4 := run(4)
	if b1 == 0 {
		t.Fatal("expected blocking with one VC")
	}
	if b4 >= b1 {
		t.Fatalf("4 VCs blocked %d, 1 VC blocked %d: VCs did not help", b4, b1)
	}
}

func TestTorusWraparound(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 4, 4)
	cfg.Topology = TorusTopology
	cfg.VirtualChannels = 2
	n := New(s, cfg)
	// 0 -> 3 on a 4-wide torus: one wrap hop west instead of 3 east.
	if h := n.Hops(0, 3); h != 1 {
		t.Fatalf("torus hops 0->3 = %d, want 1", h)
	}
	// Corner to corner: 2 hops via wraparound.
	if h := n.Hops(0, 15); h != 2 {
		t.Fatalf("torus hops 0->15 = %d, want 2", h)
	}
	var d Delivery
	n.Inject(Message{ID: 1, Src: 0, Dst: 15, Bytes: 8, Inject: 0}, func(x Delivery) { d = x })
	s.Run()
	if d.Hops != 2 {
		t.Fatalf("delivered hops = %d", d.Hops)
	}
}

func TestConservationProperty(t *testing.T) {
	prop := func(seed uint64, count uint8) bool {
		s := sim.New()
		cfg := DefaultConfig(MeshTopology, 4, 4)
		n := New(s, cfg)
		st := sim.NewStream(seed)
		total := int(count)%200 + 1
		for i := 0; i < total; i++ {
			m := Message{
				ID:     int64(i),
				Src:    st.IntN(cfg.Fabric().Endpoints()),
				Dst:    st.IntN(cfg.Fabric().Endpoints()),
				Bytes:  1 + st.IntN(256),
				Inject: sim.Time(st.IntN(10000)),
			}
			n.Inject(m, nil)
		}
		s.Run()
		return n.Delivered() == int64(total) && n.InFlight() == 0 && len(n.Log()) == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyAtLeastUncontendedProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s := sim.New()
		cfg := DefaultConfig(MeshTopology, 4, 4)
		n := New(s, cfg)
		st := sim.NewStream(seed)
		type expect struct {
			hops  int
			flits int
		}
		expects := map[int64]expect{}
		for i := 0; i < 100; i++ {
			m := Message{
				ID:     int64(i),
				Src:    st.IntN(cfg.Fabric().Endpoints()),
				Dst:    st.IntN(cfg.Fabric().Endpoints()),
				Bytes:  1 + st.IntN(128),
				Inject: sim.Time(st.IntN(2000)),
			}
			expects[m.ID] = expect{hops: manhattan(cfg, m.Src, m.Dst), flits: cfg.Flits(m.Bytes)}
			n.Inject(m, nil)
		}
		s.Run()
		hopTime := cfg.CycleTime * sim.Duration(1+cfg.RouterDelay)
		for _, d := range n.Log() {
			e := expects[d.Message.ID]
			var min sim.Duration
			if d.Src == d.Dst {
				min = cfg.LocalDelay
			} else {
				min = sim.Duration(e.hops)*hopTime + sim.Duration(e.flits-1)*cfg.CycleTime
			}
			if d.Latency < min {
				return false
			}
			if d.Latency != min && d.Blocked == 0 {
				return false // slower than physics with no recorded contention
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockFreedomUnderLoad(t *testing.T) {
	// Saturate a small mesh with long messages in adversarial (cyclic)
	// patterns; everything must still drain.
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 3, 3)
	n := New(s, cfg)
	id := int64(0)
	for round := 0; round < 50; round++ {
		for src := 0; src < cfg.Fabric().Endpoints(); src++ {
			dst := (src + 1 + round%(cfg.Fabric().Endpoints()-1)) % cfg.Fabric().Endpoints()
			id++
			n.Inject(Message{ID: id, Src: src, Dst: dst, Bytes: 512, Inject: sim.Time(round * 10)}, nil)
		}
	}
	s.Run()
	if n.InFlight() != 0 {
		t.Fatalf("%d messages stuck in flight", n.InFlight())
	}
	if n.Delivered() != id {
		t.Fatalf("delivered %d of %d", n.Delivered(), id)
	}
}

func TestTorusDeadlockFreedomUnderLoad(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 4, 4)
	cfg.Topology = TorusTopology
	cfg.VirtualChannels = 2
	n := New(s, cfg)
	id := int64(0)
	st := sim.NewStream(99)
	for i := 0; i < 600; i++ {
		id++
		n.Inject(Message{
			ID: id, Src: st.IntN(16), Dst: st.IntN(16),
			Bytes: 64 + st.IntN(512), Inject: sim.Time(st.IntN(5000)),
		}, nil)
	}
	s.Run()
	if n.InFlight() != 0 {
		t.Fatalf("%d messages stuck on torus", n.InFlight())
	}
}

func TestLinkStatsBounded(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(MeshTopology, 4, 4)
	n := New(s, cfg)
	st := sim.NewStream(5)
	for i := 0; i < 300; i++ {
		n.Inject(Message{
			ID: int64(i), Src: st.IntN(16), Dst: st.IntN(16),
			Bytes: 1 + st.IntN(128), Inject: sim.Time(st.IntN(3000)),
		}, nil)
	}
	s.Run()
	stats := n.LinkStats()
	// 4x4 mesh: 2*(3*4)*2 = 48 directed links.
	if len(stats) != 48 {
		t.Fatalf("got %d links, want 48", len(stats))
	}
	for _, ls := range stats {
		if ls.Utilization < 0 || ls.Utilization > 1 {
			t.Fatalf("link %d->%d utilization %v out of range", ls.From, ls.To, ls.Utilization)
		}
	}
	if n.MeanUtilization() <= 0 {
		t.Fatal("mean utilization should be positive after traffic")
	}
}

func TestLogSortedByInjection(t *testing.T) {
	s := sim.New()
	n := New(s, DefaultConfig(MeshTopology, 4, 4))
	n.Inject(Message{ID: 1, Src: 0, Dst: 15, Bytes: 64, Inject: 100}, nil)
	n.Inject(Message{ID: 2, Src: 1, Dst: 2, Bytes: 8, Inject: 0}, nil)
	s.Run()
	log := n.Log()
	if log[0].Message.ID != 2 || log[1].Message.ID != 1 {
		t.Fatalf("log not injection-ordered: %+v", log)
	}
}

func TestInjectValidation(t *testing.T) {
	s := sim.New()
	n := New(s, DefaultConfig(MeshTopology, 2, 2))
	for _, m := range []Message{
		{ID: 1, Src: -1, Dst: 0, Bytes: 8},
		{ID: 2, Src: 0, Dst: 99, Bytes: 8},
		{ID: 3, Src: 0, Dst: 1, Bytes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("message %+v accepted", m)
				}
			}()
			n.Inject(m, nil)
		}()
	}
}
