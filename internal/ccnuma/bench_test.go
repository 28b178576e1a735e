package ccnuma

import (
	"testing"

	"commchar/internal/sim"
)

// missRig is the fixed 16-processor MSI system of BenchmarkMiss (4x4
// mesh, the default direct-mapped caches), with two addresses that share
// processor 0's cache frame and a home node two hops away, so reading
// them alternately misses on every read and each evicted Shared copy
// leaves silently.
func missRig() (*sim.Simulator, *System, [2]uint64) {
	s, _, sys := rig(16)
	const home = 5
	region := sys.Alloc(2 * sys.cfg.CacheBytes)
	for sys.Home(region) != home {
		region += uint64(sys.cfg.LineBytes)
	}
	return s, sys, [2]uint64{region, region + uint64(sys.cfg.CacheBytes)}
}

// BenchmarkMiss times one remote read miss: the request to the home
// node, the directory access and the data reply, both messages worms
// through the mesh. An op pays for the miss and nothing else.
func BenchmarkMiss(b *testing.B) {
	s, sys, addrs := missRig()
	s.Spawn("reader", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			sys.Read(p, 0, addrs[i&1])
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := sys.Stats(); st.ReadMisses != int64(b.N) {
		b.Fatalf("%d read misses in %d reads", st.ReadMisses, b.N)
	}
}

// TestMissAllocFree pins the protocol's message path: once warm, a remote
// read miss, with its two protocol messages, allocates nothing. Each
// requesting process reuses one bound delivery callback.
func TestMissAllocFree(t *testing.T) {
	s, sys, addrs := missRig()
	stop := false
	s.Spawn("reader", func(p *sim.Process) {
		for i := 0; !stop; i++ {
			sys.Read(p, 0, addrs[i&1])
		}
	})
	// nextMiss steps the simulator from one miss's start to the next's.
	nextMiss := func() {
		want := sys.Stats().ReadMisses + 1
		for sys.Stats().ReadMisses < want {
			s.Step()
		}
	}
	for i := 0; i < 1000; i++ { // grow the calendar, the log and the maps
		nextMiss()
	}
	if allocs := testing.AllocsPerRun(200, nextMiss); allocs != 0 {
		t.Fatalf("a read miss allocates %v times, want 0", allocs)
	}
	stop = true
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidationAllocFree pins the invalidation path: once warm, a
// write that invalidates three sharers, one of them the block's home,
// allocates nothing. Each round has processors 1, 2 and the home read
// the block, fetching it from the last writer, and then processor 0
// writes it, so the write sends two remote INVs and their acks and
// applies one local invalidation.
func TestInvalidationAllocFree(t *testing.T) {
	s, sys, addrs := missRig()
	const home = 5
	addr := addrs[0]
	round := func(p *sim.Process) {
		for _, proc := range []int{1, 2, home} {
			sys.Read(p, proc, addr)
		}
		sys.Write(p, 0, addr)
	}
	var allocs float64
	s.Spawn("sharers and writer", func(p *sim.Process) {
		for range 50 { // grow the calendar, the log, the maps and the free list
			round(p)
		}
		before := sys.Stats().Invalidations
		allocs = testing.AllocsPerRun(200, func() { round(p) })
		if got := sys.Stats().Invalidations - before; got != 3*201 {
			t.Errorf("%d invalidations in 201 rounds, want 3 a round", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("an invalidating write round allocates %v times, want 0", allocs)
	}
}
