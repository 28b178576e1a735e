package ccnuma

import (
	"testing"
	"testing/quick"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

func rigMESI(n int) (*sim.Simulator, *mesh.Network, *System) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, (n+3)/4))
	cfg := DefaultConfig(n)
	cfg.Protocol = MESI
	sys := New(s, net, cfg)
	return s, net, sys
}

func TestMESIGrantsExclusiveOnColdRead(t *testing.T) {
	s, _, sys := rigMESI(4)
	addr := sys.Alloc(8)
	proc := (sys.Home(addr) + 1) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, proc, addr)
	})
	s.Run()
	l, ok := sys.caches[proc].lookup(sys.block(addr))
	if !ok || l.state != Exclusive {
		t.Fatalf("cold read state = %v ok=%v, want Exclusive", l, ok)
	}
	if sys.Stats().ExclusiveGrants != 1 {
		t.Fatalf("stats = %+v", sys.Stats())
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMESISilentUpgradeSavesTraffic(t *testing.T) {
	// Read-then-write of private data: MSI needs an upgrade round-trip,
	// MESI none.
	run := func(protocol Protocol) (int64, Stats) {
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 1))
		cfg := DefaultConfig(4)
		cfg.Protocol = protocol
		sys := New(s, net, cfg)
		addr := sys.Alloc(8)
		proc := (sys.Home(addr) + 1) % 4
		s.Spawn("p", func(p *sim.Process) {
			sys.Read(p, proc, addr)
			sys.Write(p, proc, addr)
		})
		s.Run()
		return net.Delivered(), sys.Stats()
	}
	msiMsgs, msiStats := run(MSI)
	mesiMsgs, mesiStats := run(MESI)
	if msiStats.Upgrades != 1 {
		t.Fatalf("MSI upgrades = %d", msiStats.Upgrades)
	}
	if mesiStats.SilentUpgrades != 1 || mesiStats.Upgrades != 0 {
		t.Fatalf("MESI stats = %+v", mesiStats)
	}
	if mesiMsgs >= msiMsgs {
		t.Fatalf("MESI messages %d not below MSI %d", mesiMsgs, msiMsgs)
	}
}

func TestMESISecondReaderDowngradesToShared(t *testing.T) {
	s, net, sys := rigMESI(4)
	addr := sys.Alloc(8)
	home := sys.Home(addr)
	a, b := (home+1)%4, (home+2)%4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, a, addr) // E at a
		sys.Read(p, b, addr) // both S
	})
	s.Run()
	la, _ := sys.caches[a].lookup(sys.block(addr))
	lb, _ := sys.caches[b].lookup(sys.block(addr))
	if la == nil || la.state != Shared || lb == nil || lb.state != Shared {
		t.Fatalf("states after second read: %v / %v", la, lb)
	}
	// The clean-exclusive fetch must NOT have moved data back to home:
	// data messages are exactly two fills.
	dataCount := 0
	for _, d := range net.Log() {
		if d.Bytes == sys.cfg.DataBytes() {
			dataCount++
		}
	}
	if dataCount != 2 {
		t.Fatalf("data messages = %d, want 2 (no clean writeback)", dataCount)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMESIWriteFetchFromCleanOwner(t *testing.T) {
	s, _, sys := rigMESI(4)
	addr := sys.Alloc(8)
	home := sys.Home(addr)
	a, b := (home+1)%4, (home+2)%4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, a, addr)  // E at a (clean)
		sys.Write(p, b, addr) // b takes M; a's clean copy invalidated
	})
	s.Run()
	if _, ok := sys.caches[a].lookup(sys.block(addr)); ok {
		t.Fatal("previous exclusive owner still holds the line")
	}
	lb, ok := sys.caches[b].lookup(sys.block(addr))
	if !ok || lb.state != Modified {
		t.Fatalf("writer state = %v", lb)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMESIEvictionSendsReplacementHint(t *testing.T) {
	s, _, sys := rigMESI(4)
	a := sys.Alloc(sys.cfg.CacheBytes * 2)
	b := a + uint64(sys.cfg.CacheBytes)
	proc := (sys.Home(a) + 1) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, proc, a) // E
		sys.Read(p, proc, b) // conflicts: evicts clean-exclusive a
	})
	s.Run()
	if sys.Stats().ReplacementHints != 1 {
		t.Fatalf("hints = %d", sys.Stats().ReplacementHints)
	}
	if e := sys.dir[sys.block(a)]; e.owner != -1 {
		t.Fatalf("directory owner %d not cleared by hint", e.owner)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMESIInvariantsUnderStormProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s, net, sys := rigMESI(8)
		heap := sys.Alloc(4096)
		st := sim.NewStream(seed)
		for proc := 0; proc < 8; proc++ {
			proc := proc
			s.Spawn("p", func(p *sim.Process) {
				for i := 0; i < 60; i++ {
					addr := heap + uint64(st.IntN(4096/8)*8)
					if st.Float64() < 0.3 {
						sys.Write(p, proc, addr)
					} else {
						sys.Read(p, proc, addr)
					}
					p.Hold(sim.Duration(st.IntN(150)))
				}
			})
		}
		s.Run()
		return net.InFlight() == 0 && sys.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMESIFewerMessagesOnPrivateWorkload(t *testing.T) {
	// Mostly-private access pattern: MESI must beat MSI on total traffic.
	run := func(protocol Protocol) int64 {
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 2))
		cfg := DefaultConfig(8)
		cfg.Protocol = protocol
		sys := New(s, net, cfg)
		heap := sys.Alloc(8 * 1024)
		for proc := 0; proc < 8; proc++ {
			proc := proc
			s.Spawn("p", func(p *sim.Process) {
				base := heap + uint64(proc*1024)
				for i := 0; i < 30; i++ {
					addr := base + uint64((i%16)*64)
					sys.Read(p, proc, addr)
					sys.Write(p, proc, addr)
				}
			})
		}
		s.Run()
		return net.Delivered()
	}
	if mesi, msi := run(MESI), run(MSI); mesi >= msi {
		t.Fatalf("MESI traffic %d not below MSI %d on private workload", mesi, msi)
	}
}
