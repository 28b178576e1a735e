package mesh_test

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// deliveryChunks keeps deliveries the way the network kept its log before
// the compact records: Delivery values in completion order, in chunks of
// 256 to 32768 entries that are never copied once full.
type deliveryChunks struct {
	chunks [][]mesh.Delivery
	n      int
}

func (c *deliveryChunks) add(d mesh.Delivery) {
	if k := len(c.chunks); k == 0 || len(c.chunks[k-1]) == cap(c.chunks[k-1]) {
		c.chunks = append(c.chunks, make([]mesh.Delivery, 0, min(max(c.n, 256), 1<<15)))
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, d)
	c.n++
}

// referenceLog is the log as Network.Log built it from those chunks: one
// copy, then sort.Slice by (Inject, ID).
func (c *deliveryChunks) referenceLog() []mesh.Delivery {
	out := make([]mesh.Delivery, 0, c.n)
	for _, chunk := range c.chunks {
		out = append(out, chunk...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Inject != out[j].Inject {
			return out[i].Inject < out[j].Inject
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// recording returns a done callback that records the delivery in c, then
// runs then (if non-nil).
func (c *deliveryChunks) recording(then func(mesh.Delivery)) func(mesh.Delivery) {
	return func(d mesh.Delivery) {
		c.add(d)
		if then != nil {
			then(d)
		}
	}
}

// sameLog fails the test unless got equals want element by element.
func sameLog(t *testing.T, got, want []mesh.Delivery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Log has %d deliveries, the reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d of %d:\n got  %+v\n want %+v", i, len(got), got[i], want[i])
		}
	}
}

// oracleTraffic drives the digest table's seeded request traffic through
// net, each delivered request answered by a reply, recording every
// delivery in rec. With ahead, every request is injected before the run
// at its future injection time; otherwise a calendar callback injects it
// at the simulator's current time, as the engine's injectors do.
func oracleTraffic(s *sim.Simulator, net *mesh.Network, rec *deliveryChunks, ahead bool) {
	eps := net.Topology().Endpoints()
	lengths := []int{8, 32, 64, 200}
	st := sim.NewStream(0x5EED)
	reply := rec.recording(func(d mesh.Delivery) {
		if d.Status == mesh.StatusDelivered {
			net.Inject(mesh.Message{Src: int(d.Dst), Dst: int(d.Src), Bytes: 16, Inject: d.End}, rec.recording(nil))
		}
	})
	for src := 0; src < eps; src++ {
		at := sim.Time(0)
		for i := 0; i < 30; i++ {
			at += sim.Time(st.Exponential(2000)) + 1
			dst, bytes := st.IntN(eps), lengths[st.IntN(len(lengths))]
			if ahead {
				net.Inject(mesh.Message{Src: src, Dst: dst, Bytes: bytes, Inject: at}, reply)
				continue
			}
			s.At(at, func() {
				net.Inject(mesh.Message{Src: src, Dst: dst, Bytes: bytes, Inject: s.Now()}, reply)
			})
		}
	}
}

// TestLogMatchesReference checks Log against the log rebuilt the old way
// from every delivery the done callbacks saw, on every fabric of the
// engine digest table, fault-free and with every traversal dropped for a
// window longer than the retry schedule (so some messages fail), with
// messages injected at the current time (the order Log needs no sort
// for) and ahead of time (the order it sorts).
func TestLogMatchesReference(t *testing.T) {
	for _, fab := range goldenFabrics {
		for _, spec := range []string{"", "drop:1@40us-80us"} {
			for _, ahead := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%q/ahead=%v", fab.name, spec, ahead), func(t *testing.T) {
					s := sim.New()
					net := mesh.New(s, fab.cfg())
					if spec != "" {
						sched, err := fault.Parse(spec, 17)
						if err != nil {
							t.Fatal(err)
						}
						net.SetFaults(sched)
					}
					var rec deliveryChunks
					oracleTraffic(s, net, &rec, ahead)
					mesh.MustRun(t, s)
					log := net.Log()
					sameLog(t, log, rec.referenceLog())
					failed := 0
					for _, d := range log {
						if d.Status == mesh.StatusFailed {
							failed++
						}
					}
					if (failed > 0) != (spec != "") {
						t.Errorf("%d failed deliveries under %q", failed, spec)
					}
				})
			}
		}
	}
}

// TestLogMidRun checks a Log taken with messages still in flight: it holds
// exactly the deliveries completed so far, in order, and a Log taken after
// the run holds them all.
func TestLogMidRun(t *testing.T) {
	for _, ahead := range []bool{false, true} {
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 4))
		var rec deliveryChunks
		oracleTraffic(s, net, &rec, ahead)
		for _, at := range []sim.Time{5_000, 20_000, 40_000} {
			s.RunUntil(at)
			if net.InFlight() == 0 || rec.n == 0 {
				t.Fatalf("ahead=%v, t=%d: %d in flight, %d delivered; want both above zero", ahead, at, net.InFlight(), rec.n)
			}
			sameLog(t, net.Log(), rec.referenceLog())
		}
		mesh.MustRun(t, s)
		sameLog(t, net.Log(), rec.referenceLog())
	}
}

// FuzzLogRecord round-trips deliveries through the log's records at the
// edges of every field: int64 times at their extremes, huge lengths and
// blocked times, every fault-flag and status value, and any completion
// order. The network stores nothing else, so what Log returns must be the
// deliveries, each numbered slot + 1 as Inject numbers it, sorted by
// (Inject, ID).
func FuzzLogRecord(f *testing.F) {
	f.Add(int64(1), int64(0), int64(100), int64(40), int64(0), 3, uint16(0), uint8(0), false, uint8(0))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(-1), int64(math.MaxInt64), int64(math.MaxInt64),
		math.MaxInt32, uint16(math.MaxUint16), uint8(63), true, uint8(5))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), int64(1), int64(-5), -1,
		uint16(1), uint8(0x2a), true, uint8(3))
	f.Fuzz(func(t *testing.T, id, inject, latency, bytes, blocked int64, hops int, retries uint16,
		faults uint8, failed bool, order uint8) {
		base := mesh.Delivery{
			Src: int32(id >> 40), Dst: int32(inject), Bytes: int(bytes), Inject: sim.Time(inject),
			End: sim.Time(inject + latency), Blocked: sim.Duration(blocked),
			Hops: int32(hops), Retries: retries, Faults: mesh.FaultFlags(faults % 64),
		}
		if failed {
			base.Status = mesh.StatusFailed
		}
		// Three deliveries around base, two of them sharing its Inject.
		ds := []mesh.Delivery{base, base, base}
		ds[1].Inject, ds[1].End = ^sim.Time(inject), ^sim.Time(inject)+sim.Time(latency)
		ds[1].Faults, ds[1].Retries = ^ds[1].Faults&63, ^retries
		ds[2].Src, ds[2].Hops, ds[2].Status = ds[2].Dst, int32(hops/2), mesh.StatusDelivered
		perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		slots := perms[int(order)%len(perms)]
		want := make([]mesh.Delivery, len(ds))
		for i, slot := range slots {
			ds[i].ID = int64(slot) + 1
			want[slot] = ds[i]
		}
		slices.SortFunc(want, func(a, b mesh.Delivery) int {
			return cmp.Or(cmp.Compare(a.Inject, b.Inject), cmp.Compare(a.ID, b.ID))
		})
		sameLog(t, mesh.LogOf(ds), want)
	})
}

// TestDeliverySize pins the size of a Delivery, the element of every
// delivery log: 56 bytes, with endpoints and hops in 32 bits, retries in
// 16 and the fault flags and status in 8 (the latency is a method, not a
// field).
func TestDeliverySize(t *testing.T) {
	if got := unsafe.Sizeof(mesh.Delivery{}); got != 56 {
		t.Errorf("mesh.Delivery is %d bytes, want 56", got)
	}
}

// TestLogBytesPerDelivery bounds what the delivery log costs the network
// beyond the slice Log returns: a long run that keeps its log, then takes
// it, must allocate at most 24 bytes a delivery more than the same run on
// a network that keeps none plus that slice. Keeping the log as Delivery
// values in chunks, then copying them into the slice, cost about 126.
func TestLogBytesPerDelivery(t *testing.T) {
	const messages = 100_000
	run := func(keep bool) (allocated uint64, log []mesh.Delivery) {
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 4))
		if !keep {
			net.DiscardLog()
		}
		st := sim.NewStream(0x10C)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		at := sim.Time(0)
		for range messages {
			at += sim.Time(st.Exponential(40)) + 1
			s.At(at, func() {
				net.Inject(mesh.Message{Src: st.IntN(16), Dst: st.IntN(16), Bytes: 8 + st.IntN(256), Inject: s.Now()}, nil)
			})
		}
		mesh.MustRun(t, s)
		if keep {
			log = net.Log()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, log
	}
	discarded, _ := run(false)
	kept, log := run(true)
	if len(log) != messages {
		t.Fatalf("%d deliveries, want %d", len(log), messages)
	}
	extra := float64(kept) - float64(discarded) - float64(len(log))*float64(unsafe.Sizeof(mesh.Delivery{}))
	perDelivery := extra / messages
	t.Logf("log storage beyond the returned slice: %.1f bytes a delivery", perDelivery)
	if perDelivery > 24 {
		t.Errorf("log storage beyond the returned slice: %.1f bytes a delivery, want at most 24", perDelivery)
	}
}
