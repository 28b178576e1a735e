package trace_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

// BenchmarkReplay times one trace.Replay of the 16-rank small-scale 3D-FFT
// trace through a 4x4 mesh with no software overhead, simulator run
// included. The trace is built once, outside the timer, so one op is the
// log stage of a static-strategy spec and nothing else.
func BenchmarkReplay(b *testing.B) {
	const ranks = 16
	tr, err := core.AcquireMessagePassingWith(ranks, mp.AlgLinear, func(w *mp.World) error {
		return apps.RunMessagePassingOn(w, apps.ScaleSmall, "3D-FFT", ranks)
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(ranks)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		net := mesh.New(s, cfg)
		if err := trace.Replay(s, net, tr, trace.ZeroCost{}); err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if net.Delivered() != int64(tr.Messages()) {
			b.Fatalf("delivered %d of %d messages", net.Delivered(), tr.Messages())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Messages()), "ns/msg")
}

// BenchmarkReadDeliveries times one ReadDeliveries of a 100k-row random
// log, with the row count as its capacity hint, the way a warm cache load
// reads a log. SetBytes makes its MB/s the log's parse rate.
func BenchmarkReadDeliveries(b *testing.B) {
	const rows = 100_000
	var buf bytes.Buffer
	if err := trace.WriteDeliveries(&buf, trace.RandomLog(rand.New(rand.NewPCG(1, 2)), rows)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	r := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		log, err := trace.ReadDeliveries(r, rows)
		if err != nil || len(log) != rows {
			b.Fatalf("read %d of %d deliveries: %v", len(log), rows, err)
		}
	}
}

// BenchmarkReadCSV times one ReadCSV of a 100k-event random trace, the
// way meshsim reads its -trace input and a warm cache load reads a
// static artifact's trace. SetBytes makes its MB/s the parse rate.
func BenchmarkReadCSV(b *testing.B) {
	const ranks, events = 16, 100_000
	var buf bytes.Buffer
	if err := trace.RandomTrace(rand.New(rand.NewPCG(1, 2)), ranks, events).WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	r := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		tr, err := trace.ReadCSV(r, ranks)
		if err != nil {
			b.Fatal(err)
		}
		if n := tr.TotalEvents(); n != events {
			b.Fatalf("read %d of %d events", n, events)
		}
	}
}
