package mesh_test

import (
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// BenchmarkWormPerHop times one worm at a time crossing an 8x8 mesh
// corner to corner (14 hops), so no worm ever waits for a lane. It
// reports the host time per hop; allocs/op counts one message's
// allocations, its calendar events once the worm free list is warm.
func BenchmarkWormPerHop(b *testing.B) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 8, 8))
	hops := net.Hops(0, 63)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Inject(mesh.Message{ID: int64(i), Src: 0, Dst: 63, Bytes: 64, Inject: s.Now()}, nil)
		mesh.MustRun(b, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
}

// BenchmarkWormHotSpot times an all-to-one burst on a 4x4 mesh: every
// node sends to node 0 at once, so worms queue for the sink's links.
// One op is one burst of 15 messages.
func BenchmarkWormHotSpot(b *testing.B) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for src := 1; src < 16; src++ {
			net.Inject(mesh.Message{ID: net.NextID(), Src: src, Dst: 0, Bytes: 64, Inject: s.Now()}, nil)
		}
		mesh.MustRun(b, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*15), "ns/msg")
}
