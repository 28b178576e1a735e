package ccnuma

import (
	"testing"

	"commchar/internal/sim"
)

// BenchmarkMiss times one remote read miss on a fixed 16-processor MSI
// system (4x4 mesh, the default direct-mapped caches): the request to the
// home node, the directory access and the data reply, both messages worms
// through the mesh. Processor 0 alternates between two blocks that share
// its cache frame and a home node two hops away, so every read misses and
// each evicted Shared copy leaves silently: an op pays for the miss and
// nothing else.
func BenchmarkMiss(b *testing.B) {
	s, _, sys := rig(16)
	const proc, home = 0, 5
	region := sys.Alloc(2 * sys.cfg.CacheBytes)
	for sys.Home(region) != home {
		region += uint64(sys.cfg.LineBytes)
	}
	addrs := [2]uint64{region, region + uint64(sys.cfg.CacheBytes)}
	s.Spawn("reader", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			sys.Read(p, proc, addrs[i&1])
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
