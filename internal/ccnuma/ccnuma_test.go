package ccnuma

import (
	"testing"
	"testing/quick"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// rig builds a simulator, mesh, and memory system for n processors.
func rig(n int) (*sim.Simulator, *mesh.Network, *System) {
	s := sim.New()
	w, h := 4, (n+3)/4
	if n <= 4 {
		w, h = n, 1
	}
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, w, h))
	sys := New(s, net, DefaultConfig(n))
	return s, net, sys
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(16).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(16)
	bad.CacheBytes = 100 // not a line multiple
	if bad.Validate() == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestAllocAlignmentAndHomes(t *testing.T) {
	_, _, sys := rig(4)
	a := sys.Alloc(100)
	b := sys.Alloc(1)
	if a%uint64(sys.cfg.LineBytes) != 0 || b%uint64(sys.cfg.LineBytes) != 0 {
		t.Fatal("allocations not line-aligned")
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
	// Block interleaving: consecutive lines on consecutive homes.
	base := sys.Alloc(4 * sys.cfg.LineBytes)
	h0 := sys.Home(base)
	for i := 1; i < 4; i++ {
		hi := sys.Home(base + uint64(i*sys.cfg.LineBytes))
		if hi != (h0+i)%4 {
			t.Fatalf("home of line %d = %d, want %d", i, hi, (h0+i)%4)
		}
	}
}

func TestReadMissThenHit(t *testing.T) {
	s, net, sys := rig(4)
	addr := sys.Alloc(8)
	// Pick a processor that is not the home so messages hit the network.
	proc := (sys.Home(addr) + 1) % 4
	var missTime, hitTime sim.Duration
	s.Spawn("p", func(p *sim.Process) {
		t0 := p.Now()
		sys.Read(p, proc, addr)
		missTime = sim.Duration(p.Now() - t0)
		t1 := p.Now()
		sys.Read(p, proc, addr)
		hitTime = sim.Duration(p.Now() - t1)
	})
	s.Run()
	if net.Delivered() != 2 {
		t.Fatalf("read miss generated %d messages, want 2 (request + data)", net.Delivered())
	}
	log := net.Log()
	if log[0].Bytes != sys.cfg.ControlBytes || log[1].Bytes != sys.cfg.DataBytes() {
		t.Fatalf("message sizes = %d, %d", log[0].Bytes, log[1].Bytes)
	}
	if hitTime != sys.cfg.HitTime {
		t.Fatalf("hit time = %d, want %d", hitTime, sys.cfg.HitTime)
	}
	if missTime <= 10*hitTime {
		t.Fatalf("miss time %d suspiciously close to hit time", missTime)
	}
	st := sys.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMissInvalidatesSharers(t *testing.T) {
	s, _, sys := rig(4)
	addr := sys.Alloc(8)
	home := sys.Home(addr)
	readers := []int{(home + 1) % 4, (home + 2) % 4}
	writer := (home + 3) % 4
	s.Spawn("w", func(p *sim.Process) {
		for _, r := range readers {
			sys.Read(p, r, addr)
		}
		sys.Write(p, writer, addr)
	})
	s.Run()
	st := sys.Stats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
	// Readers' copies must be gone; writer holds Modified.
	for _, r := range readers {
		if _, ok := sys.caches[r].lookup(sys.block(addr)); ok {
			t.Fatalf("reader %d still holds the line", r)
		}
	}
	l, ok := sys.caches[writer].lookup(sys.block(addr))
	if !ok || l.state != Modified {
		t.Fatalf("writer line = %+v ok=%v", l, ok)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMissFetchesFromDirtyOwner(t *testing.T) {
	s, net, sys := rig(4)
	addr := sys.Alloc(8)
	home := sys.Home(addr)
	writer := (home + 1) % 4
	reader := (home + 2) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Write(p, writer, addr)
		sys.Read(p, reader, addr)
	})
	s.Run()
	st := sys.Stats()
	if st.OwnerFetches != 1 {
		t.Fatalf("owner fetches = %d, want 1", st.OwnerFetches)
	}
	// Owner downgraded to Shared, reader Shared.
	lw, okw := sys.caches[writer].lookup(sys.block(addr))
	lr, okr := sys.caches[reader].lookup(sys.block(addr))
	if !okw || lw.state != Shared || !okr || lr.state != Shared {
		t.Fatalf("states: writer %v/%v reader %v/%v", lw, okw, lr, okr)
	}
	// Messages: write miss (req+data) + read miss (req + fetch + wb + data) = 6.
	if net.Delivered() != 6 {
		t.Fatalf("delivered %d messages, want 6", net.Delivered())
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeUsesControlMessage(t *testing.T) {
	s, net, sys := rig(4)
	addr := sys.Alloc(8)
	home := sys.Home(addr)
	proc := (home + 1) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, proc, addr)  // S
		sys.Write(p, proc, addr) // upgrade S->M
	})
	s.Run()
	st := sys.Stats()
	if st.Upgrades != 1 {
		t.Fatalf("upgrades = %d", st.Upgrades)
	}
	// Upgrade with no other sharers: REQ + GRANT, both control-sized.
	log := net.Log()
	if len(log) != 4 {
		t.Fatalf("messages = %d, want 4", len(log))
	}
	for _, d := range log[2:] {
		if d.Bytes != sys.cfg.ControlBytes {
			t.Fatalf("upgrade message %d bytes, want control size", d.Bytes)
		}
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	s, _, sys := rig(4)
	// Two addresses in the same cache set: one cache of lines apart.
	a := sys.Alloc(sys.cfg.CacheBytes * 2)
	b := a + uint64(sys.cfg.CacheBytes)
	if sys.block(a)%uint64(sys.cfg.CacheBytes/sys.cfg.LineBytes) !=
		sys.block(b)%uint64(sys.cfg.CacheBytes/sys.cfg.LineBytes) {
		t.Fatal("test addresses do not conflict")
	}
	proc := (sys.Home(a) + 1) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Write(p, proc, a) // dirty
		sys.Read(p, proc, b)  // conflicts: evicts dirty a
	})
	s.Run()
	st := sys.Stats()
	if st.Writebacks != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// After writeback the directory must not list an owner for a.
	if e := sys.dir[sys.block(a)]; e.owner != -1 {
		t.Fatalf("directory still has owner %d for evicted block", e.owner)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanEvictionIsSilent(t *testing.T) {
	s, net, sys := rig(4)
	a := sys.Alloc(sys.cfg.CacheBytes * 2)
	b := a + uint64(sys.cfg.CacheBytes)
	proc := (sys.Home(a) + 1) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, proc, a) // clean S
		sys.Read(p, proc, b) // evicts a silently
	})
	s.Run()
	// Two read misses: 2 × (req + data) = 4 messages, no writeback.
	if net.Delivered() != 4 {
		t.Fatalf("delivered %d, want 4 (clean eviction must be silent)", net.Delivered())
	}
	if sys.Stats().Writebacks != 0 {
		t.Fatal("clean eviction wrote back")
	}
}

func TestLocalAccessStaysOffNetwork(t *testing.T) {
	s, net, sys := rig(4)
	addr := sys.Alloc(8)
	home := sys.Home(addr)
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, home, addr) // home reads its own memory
	})
	s.Run()
	if net.Delivered() != 0 {
		t.Fatalf("local access sent %d network messages", net.Delivered())
	}
}

func TestSequentialConsistencyOrdering(t *testing.T) {
	// Two processors ping-pong a line; every access must complete before
	// the next one of the same processor starts (blocking semantics), and
	// the line must end in a single consistent state.
	s, _, sys := rig(2)
	addr := sys.Alloc(8)
	const rounds = 20
	var order []int
	for proc := 0; proc < 2; proc++ {
		proc := proc
		s.Spawn("p", func(p *sim.Process) {
			for i := 0; i < rounds; i++ {
				sys.Write(p, proc, addr)
				order = append(order, proc)
				p.Hold(10)
			}
		})
	}
	s.Run()
	if len(order) != 2*rounds {
		t.Fatalf("completed %d writes", len(order))
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsUnderRandomStormProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s, net, sys := rig(8)
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
					p.Hold(sim.Duration(st.IntN(200)))
				}
			})
		}
		s.Run()
		if net.InFlight() != 0 {
			return false
		}
		return sys.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s, _, sys := rig(4)
	addr := sys.Alloc(8)
	proc := (sys.Home(addr) + 1) % 4
	s.Spawn("p", func(p *sim.Process) {
		sys.Read(p, proc, addr)
		sys.Read(p, proc, addr)
		sys.Write(p, proc, addr)
		sys.Write(p, proc, addr)
	})
	s.Run()
	st := sys.Stats()
	if st.Reads != 2 || st.Writes != 2 {
		t.Fatalf("access counts: %+v", st)
	}
	if st.ReadMisses != 1 || st.ReadHits != 1 || st.Upgrades != 1 || st.WriteHits != 1 {
		t.Fatalf("path counts: %+v", st)
	}
}

func TestAccessValidation(t *testing.T) {
	s, _, sys := rig(2)
	panics := 0
	s.Spawn("p", func(p *sim.Process) {
		for _, f := range []func(){
			func() { sys.Read(p, 5, sys.Alloc(8)) }, // bad proc
			func() { sys.Read(p, 0, 0) },            // null address
		} {
			func() {
				defer func() {
					if recover() != nil {
						panics++
					}
				}()
				f()
			}()
		}
	})
	s.Run()
	if panics != 2 {
		t.Fatalf("panics = %d, want 2", panics)
	}
}
