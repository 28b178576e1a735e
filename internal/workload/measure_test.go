package workload

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
)

// mustRun runs the simulator to completion and fails the test if the run
// ends in error (a deadlock or a tripped watchdog budget).
func mustRun(tb testing.TB, s *sim.Simulator) {
	tb.Helper()
	if err := s.Run(); err != nil {
		tb.Fatalf("run: %v", err)
	}
}

// referenceMeasureLog is MeasureLog as it was before the metrics were
// computed from integer totals: it sums each value as a float64 and
// divides at the end. It is kept as the oracle for MeasureLog.
func referenceMeasureLog(log []mesh.Delivery, elapsed sim.Time, meanUtil float64) Metrics {
	m := Metrics{MeanUtilization: meanUtil}
	for _, d := range log {
		if d.Status != mesh.StatusDelivered {
			m.Failed++
			continue
		}
		m.Messages++
		m.MeanLatencyNS += float64(d.Latency())
		m.MeanBlockedNS += float64(d.Blocked)
		m.MeanHops += float64(d.Hops)
	}
	if m.Messages == 0 {
		return m
	}
	n := float64(m.Messages)
	m.MeanLatencyNS /= n
	m.MeanBlockedNS /= n
	m.MeanHops /= n
	if elapsed > 0 {
		m.MessageRate = n / (float64(elapsed) / 1000)
	}
	return m
}

// sameBits reports whether two Metrics are equal bit for bit.
func sameBits(a, b Metrics) bool {
	fa := []float64{a.MeanLatencyNS, a.MeanBlockedNS, a.MeanHops, a.MeanUtilization, a.MessageRate}
	fb := []float64{b.MeanLatencyNS, b.MeanBlockedNS, b.MeanHops, b.MeanUtilization, b.MessageRate}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Messages == b.Messages && a.Failed == b.Failed
}

// TestTotalsMatchMeasureLog drives uniform traffic through each fabric of
// the mesh engine's digest table, fault-free and under a schedule that
// drops every traversal for longer than the whole retry schedule (so some
// messages are given up on), and checks that the metrics built from the
// network's running totals equal those measured from its log, by
// MeasureLog and by the float-summing reference, bit for bit.
func TestTotalsMatchMeasureLog(t *testing.T) {
	fabrics := []struct {
		name string
		cfg  func() mesh.Config
	}{
		{"mesh4x4", func() mesh.Config { return mesh.DefaultConfig(mesh.MeshTopology, 4, 4) }},
		{"westfirst4x4", func() mesh.Config {
			cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
			cfg.Routing = mesh.RoutingWestFirst
			return cfg
		}},
		{"torus4x4", func() mesh.Config { return mesh.DefaultConfig(mesh.TorusTopology, 4, 4) }},
		{"hypercube4", func() mesh.Config { return mesh.DefaultConfig(mesh.HypercubeTopology, 4) }},
		{"fattree4x2", func() mesh.Config { return mesh.DefaultConfig(mesh.FatTreeTopology, 4, 2) }},
		{"dragonfly2x2", func() mesh.Config { return mesh.DefaultConfig(mesh.DragonflyTopology, 2, 2) }},
	}
	lengths := []stats.LengthCount{{Bytes: 8, Count: 3}, {Bytes: 64, Count: 2}, {Bytes: 200, Count: 1}}
	for _, f := range fabrics {
		for _, spec := range []string{"", "drop:1@40us-80us"} {
			name := f.name + "/none"
			if spec != "" {
				name = f.name + "/giveup"
			}
			t.Run(name, func(t *testing.T) {
				s := sim.New()
				net := mesh.New(s, f.cfg())
				if spec != "" {
					sched, err := fault.Parse(spec, 17)
					if err != nil {
						t.Fatal(err)
					}
					net.SetFaults(sched)
				}
				g := UniformPoisson(net.Topology().Endpoints(), 2000, lengths)
				if err := g.Drive(s, net, 150*sim.Time(sim.Microsecond), 5); err != nil {
					t.Fatal(err)
				}
				mustRun(t, s)
				util := net.MeanUtilization()
				got := MeasureTotals(net.Totals(), s.Now(), util)
				fromLog := MeasureLog(net.Log(), s.Now(), util)
				ref := referenceMeasureLog(net.Log(), s.Now(), util)
				if !sameBits(got, fromLog) || !sameBits(got, ref) {
					t.Fatalf("totals %+v\nMeasureLog %+v\nreference %+v", got, fromLog, ref)
				}
				if got.Messages == 0 {
					t.Fatal("no message delivered")
				}
				if spec != "" && got.Failed == 0 {
					t.Fatal("the schedule gave up on no message")
				}
			})
		}
	}
}

// TestMeasureLogMatchesReference checks MeasureLog against the
// float-summing reference on seeded random logs whose sums stay below
// 2^53, where every float partial sum is exact.
func TestMeasureLogMatchesReference(t *testing.T) {
	prop := func(seed uint64) bool {
		st := sim.NewStream(seed)
		log := make([]mesh.Delivery, st.IntN(600))
		for i := range log {
			d := &log[i]
			d.End = sim.Time(st.IntN(1 << 43))
			d.Blocked = sim.Duration(st.IntN(int(d.Latency()) + 1))
			d.Hops = int32(st.IntN(24))
			if st.Float64() < 0.1 {
				d.Status = mesh.StatusFailed
			}
		}
		elapsed := sim.Time(st.IntN(1 << 40))
		got := MeasureLog(log, elapsed, 0.25)
		want := referenceMeasureLog(log, elapsed, 0.25)
		if !sameBits(got, want) {
			t.Logf("seed %d: got %+v, want %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureLogExactPast2p53 pins the one case where MeasureLog differs
// from the reference: once summed latency passes 2^53 ns, float partial
// sums round, while the integer total stays exact.
func TestMeasureLogExactPast2p53(t *testing.T) {
	log := []mesh.Delivery{{End: 1 << 53}, {End: 1}, {End: 1}}
	want := float64(1<<53+2) / 3
	if got := MeasureLog(log, 0, 0).MeanLatencyNS; got != want {
		t.Fatalf("mean latency %v, want %v", got, want)
	}
	if ref := referenceMeasureLog(log, 0, 0).MeanLatencyNS; ref == want {
		t.Fatalf("the float-summing reference is exact here too (%v); the case shows nothing", ref)
	}
}

// allocatedBy returns the bytes the heap allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSimulateKeepsNoLog checks that a synthetic run's memory does not
// grow with its length: running one generator four times as long
// allocates well under a byte more per extra message. It also checks that
// Log on a network that keeps no log, and DiscardLog after an Inject,
// panic with a message naming the cause.
func TestSimulateKeepsNoLog(t *testing.T) {
	g := UniformPoisson(16, 2000, []stats.LengthCount{{Bytes: 40, Count: 1}})
	cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	const span = sim.Time(sim.Millisecond)
	measure := func(until sim.Time) (msgs int, bytes uint64) {
		bytes = math.MaxUint64
		for range 3 { // the least of three, against other goroutines' allocations
			b := allocatedBy(func() {
				m, err := Simulate(g, cfg, until, 1)
				if err != nil {
					t.Fatal(err)
				}
				msgs = m.Messages
			})
			bytes = min(bytes, b)
		}
		return msgs, bytes
	}
	shortMsgs, shortBytes := measure(span)
	longMsgs, longBytes := measure(4 * span)
	extra := longMsgs - shortMsgs
	if extra < 10_000 {
		t.Fatalf("the long run made only %d more messages than the short one", extra)
	}
	grown := int64(longBytes) - int64(shortBytes)
	t.Logf("%d messages: %d B; %d messages: %d B (%+.3f B per extra message)",
		shortMsgs, shortBytes, longMsgs, longBytes, float64(grown)/float64(extra))
	if grown*4 > int64(extra) {
		t.Fatalf("allocation grew %d B over %d extra messages: the run keeps per-message state", grown, extra)
	}

	s := sim.New()
	net := mesh.New(s, cfg)
	net.DiscardLog()
	net.Inject(mesh.Message{Src: 0, Dst: 15, Bytes: 8}, nil)
	mustRun(t, s)
	if tot := net.Totals(); tot.Delivered != 1 {
		t.Fatalf("totals %+v after one delivery", tot)
	}
	mustPanic := func(call, want string, f func()) {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one naming %q", call, msg, want)
			}
		}()
		f()
	}
	mustPanic("Log on a network that keeps none", "keeps no delivery log", func() { net.Log() })
	mustPanic("DiscardLog after an Inject", "after the first Inject", net.DiscardLog)
}

// BenchmarkSimulate times a fixed uniform-Poisson workload on a 4x4 mesh
// from injection to measured metrics: what a synthetic validation run
// costs per message, and what it allocates.
func BenchmarkSimulate(b *testing.B) {
	g := UniformPoisson(16, 2000, []stats.LengthCount{{Bytes: 40, Count: 3}, {Bytes: 8, Count: 1}})
	cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	b.ReportAllocs()
	msgs := 0
	for b.Loop() {
		m, err := Simulate(g, cfg, sim.Time(sim.Millisecond), 1)
		if err != nil {
			b.Fatal(err)
		}
		msgs += m.Messages
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}
