package mesh_test

import (
	"sync"
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
		net.Inject(mesh.Message{Src: 0, Dst: 63, Bytes: 64, Inject: s.Now()}, nil)
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
			net.Inject(mesh.Message{Src: src, Dst: 0, Bytes: 64, Inject: s.Now()}, nil)
		}
		mesh.MustRun(b, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*15), "ns/msg")
}

// networkLogRun is a seeded 200k-message run on a 4x4 mesh, every message
// injected at the current time, as the engine's injectors do: its
// deliveries in completion order.
var networkLogRun = sync.OnceValue(func() []mesh.Delivery {
	const messages = 200_000
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 4))
	st := sim.NewStream(0x106)
	ds := make([]mesh.Delivery, 0, messages)
	done := func(d mesh.Delivery) { ds = append(ds, d) }
	at := sim.Time(0)
	for range messages {
		at += sim.Time(st.Exponential(40)) + 1
		s.At(at, func() {
			net.Inject(mesh.Message{Src: st.IntN(16), Dst: st.IntN(16), Bytes: 8 + st.IntN(256), Inject: s.Now()}, done)
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return ds
})

// BenchmarkNetworkLog records a 200k-message run's deliveries and rebuilds
// its sorted log, the way the network does (compact) and the way it did
// before its compact records (reference: Delivery values in chunks, one
// copy, one sort). One op is one whole log; B/op is what keeping the log
// costs a run.
func BenchmarkNetworkLog(b *testing.B) {
	ds := networkLogRun()
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var c deliveryChunks
			for _, d := range ds {
				c.add(d)
			}
			if len(c.referenceLog()) != len(ds) {
				b.Fatal("short log")
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if len(mesh.LogOf(ds)) != len(ds) {
				b.Fatal("short log")
			}
		}
	})
}
