package mesh_test

import (
	"errors"
	"reflect"
	"testing"

	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// uniformRun drives a fixed synthetic workload through a 4x4 mesh with the
// given fault schedule and returns the delivery log.
func uniformRun(t *testing.T, spec string, seed uint64) []mesh.Delivery {
	t.Helper()
	return uniformRunWith(t, mesh.DefaultConfig(mesh.MeshTopology, 4, 4), spec, seed)
}

// uniformRunWith is uniformRun on a 4x4 mesh configured by cfg.
func uniformRunWith(t *testing.T, cfg mesh.Config, spec string, seed uint64) []mesh.Delivery {
	t.Helper()
	s := sim.New()
	net := mesh.New(s, cfg)
	if spec != "" {
		sched, err := fault.Parse(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		net.SetFaults(sched)
	}
	st := sim.NewStream(0xBEEF)
	for src := 0; src < 16; src++ {
		at := sim.Time(0)
		for i := 0; i < 50; i++ {
			at += sim.Time(st.Exponential(3000)) + 1
			dst := st.IntN(16)
			if dst == src {
				dst = (dst + 1) % 16
			}
			net.Inject(mesh.Message{Src: src, Dst: dst, Bytes: 64, Inject: at}, nil)
		}
	}
	s.SetWatchdog(sim.Watchdog{MaxEvents: 5_000_000})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return net.Log()
}

func TestDropRetransmitDeterministic(t *testing.T) {
	a := uniformRun(t, "drop:0.05", 42)
	b := uniformRun(t, "drop:0.05", 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal-seed fault runs diverged")
	}
	var flagged, retried int
	for _, d := range a {
		if d.Faults&mesh.FaultDropped != 0 {
			flagged++
		}
		if d.Retries > 0 {
			retried++
		}
		if d.Status != mesh.StatusDelivered {
			t.Errorf("message %d failed: %v", d.ID, d.Faults)
		}
	}
	if flagged == 0 || retried == 0 {
		t.Fatalf("p=0.05 drop left no trace: %d flagged, %d retried", flagged, retried)
	}
	// A different seed must produce a different fault pattern.
	c := uniformRun(t, "drop:0.05", 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical logs")
	}
	// And faulted messages must still be separable from clean traffic.
	clean := uniformRun(t, "", 0)
	if len(clean) != len(a) {
		t.Fatalf("fault run lost messages: %d vs %d", len(a), len(clean))
	}
	for _, d := range clean {
		if d.Faults != 0 || d.Retries != 0 {
			t.Fatalf("clean run has fault flags: %+v", d)
		}
	}
}

func TestTransientOutageRetries(t *testing.T) {
	// Take a central link down briefly; messages crossing it during the
	// window are killed and retried. The 20us window is shorter than the
	// full backoff chain (~32us), so every kill recovers once it lifts.
	log := uniformRun(t, "down:5<->6@0-20us", 1)
	var hit int
	for _, d := range log {
		if d.Faults&mesh.FaultLinkDown != 0 {
			hit++
			if d.Status != mesh.StatusDelivered {
				t.Errorf("message %d not recovered: %+v", d.ID, d)
			}
			if d.Retries == 0 {
				t.Errorf("message %d flagged linkdown without retries", d.ID)
			}
		}
	}
	if hit == 0 {
		t.Fatal("no message crossed the downed link during the outage")
	}
}

func TestPermanentFailureReroutes(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 4))
	// Kill 0->1 (the only XY first hop of 0->3) permanently from t=0.
	sched, err := fault.Parse("down:0<->1@0ns", 7)
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(sched)
	net.Inject(mesh.Message{Src: 0, Dst: 3, Bytes: 32, Inject: 0}, nil)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	log := net.Log()
	if len(log) != 1 {
		t.Fatalf("got %d deliveries", len(log))
	}
	d := log[0]
	if d.Status != mesh.StatusDelivered {
		t.Fatalf("not delivered: %+v", d)
	}
	if d.Faults&mesh.FaultRerouted == 0 {
		t.Fatalf("not flagged rerouted: %v", d.Faults)
	}
	// The direct XY route is 3 hops; the detour via row 1 costs 2 extra.
	if d.Hops != 5 {
		t.Fatalf("detour took %d hops, want 5", d.Hops)
	}
	if len(net.Failures()) != 0 {
		t.Fatalf("unexpected failures: %v", net.Failures())
	}
}

func TestPartitionedReturnsStructuredError(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 2, 1))
	// The only link between the two nodes is dead: the fabric is split.
	sched, err := fault.Parse("down:0<->1@0ns", 7)
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(sched)
	var got mesh.Delivery
	net.Inject(mesh.Message{Src: 0, Dst: 1, Bytes: 16, Inject: 0}, func(d mesh.Delivery) { got = d })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got.Status != mesh.StatusFailed || got.Faults&mesh.FaultPartitioned == 0 {
		t.Fatalf("delivery not failed/partitioned: %+v", got)
	}
	fails := net.Failures()
	if len(fails) != 1 {
		t.Fatalf("got %d failures", len(fails))
	}
	var pe *mesh.ErrPartitioned
	if !errors.As(fails[0], &pe) {
		t.Fatalf("not ErrPartitioned: %v", fails[0])
	}
	if pe.MsgID != 1 || pe.Src != 0 || pe.Dst != 1 {
		t.Fatalf("wrong context: %+v", pe)
	}
	if net.InFlight() != 0 {
		t.Fatal("failed message left in flight")
	}
}

func TestRetryExhaustionFailsDeterministically(t *testing.T) {
	run := func() []mesh.Delivery {
		s := sim.New()
		cfg := mesh.DefaultConfig(mesh.MeshTopology, 2, 2)
		cfg.MaxRetries = 3
		net := mesh.New(s, cfg)
		sched, _ := fault.Parse("drop:1.0", 11)
		net.SetFaults(sched)
		net.Inject(mesh.Message{Src: 0, Dst: 3, Bytes: 16, Inject: 0}, nil)
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(net.Failures()) != 1 {
			t.Fatalf("got failures %v", net.Failures())
		}
		var ee *mesh.ErrExhausted
		if !errors.As(net.Failures()[0], &ee) {
			t.Fatalf("not ErrExhausted: %v", net.Failures()[0])
		}
		if ee.Retries != 3 {
			t.Fatalf("retries %d", ee.Retries)
		}
		return net.Log()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("exhaustion runs diverged")
	}
}

// TestLongRetryChainSaturatesBackoff retries every message 70 times,
// past the 63 doublings an int64 backoff holds: the capped backoff must
// saturate at RetryCap rather than wrap negative, so every message fails
// by exhaustion and the run does not panic.
func TestLongRetryChainSaturatesBackoff(t *testing.T) {
	cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	cfg.MaxRetries = 70
	log := uniformRunWith(t, cfg, "drop:1", 5)
	if len(log) != 16*50 {
		t.Fatalf("%d deliveries, want %d", len(log), 16*50)
	}
	for _, d := range log {
		if d.Status != mesh.StatusFailed || d.Retries != 70 {
			t.Fatalf("message %d: status %d after %d retries, want failed after 70", d.ID, d.Status, d.Retries)
		}
	}
}

func TestSlowLinkFlagsAndDelays(t *testing.T) {
	oneShot := func(spec string) mesh.Delivery {
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 1))
		if spec != "" {
			sched, _ := fault.Parse(spec, 3)
			net.SetFaults(sched)
		}
		net.Inject(mesh.Message{Src: 0, Dst: 3, Bytes: 64, Inject: 0}, nil)
		mesh.MustRun(t, s)
		return net.Log()[0]
	}
	clean := oneShot("")
	slowed := oneShot("slow:1->2:x8")
	if slowed.Faults&mesh.FaultSlowed == 0 {
		t.Fatalf("not flagged slowed: %v", slowed.Faults)
	}
	if slowed.Latency() <= clean.Latency() {
		t.Fatalf("slow link did not add latency: %d vs %d", slowed.Latency(), clean.Latency())
	}
}

func TestCorruptedDeliveryRetransmitted(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 2, 2))
	// Each attempt is corrupted with p=0.5, so across 20 messages some
	// deliveries arrive corrupted and are retransmitted to success.
	sched, _ := fault.Parse("corrupt:0.5", 21)
	net.SetFaults(sched)
	for i := 0; i < 20; i++ {
		net.Inject(mesh.Message{Src: i % 4, Dst: (i + 1) % 4, Bytes: 32, Inject: sim.Time(i * 10_000)}, nil)
	}
	s.SetWatchdog(sim.Watchdog{MaxEvents: 1_000_000})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	var corrupted, recovered int
	for _, d := range net.Log() {
		if d.Faults&mesh.FaultCorrupted != 0 {
			corrupted++
			if d.Status == mesh.StatusDelivered {
				recovered++
				if d.Retries == 0 {
					t.Errorf("message %d corrupted but zero retries", d.ID)
				}
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("no corruption at p=0.5")
	}
	if recovered == 0 {
		t.Fatal("no corrupted message recovered")
	}
}

func TestTorusWraparoundLinkFailureReroutes(t *testing.T) {
	// On a 4x4 torus the route 0->3 prefers the single-hop wraparound link
	// (west from x=0 lands at x=3). Kill that link permanently: the worm
	// must detour the long way around the row and still deliver.
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.TorusTopology, 4, 4))
	sched, err := fault.Parse("down:0<->3@0ns", 11)
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(sched)
	net.Inject(mesh.Message{Src: 0, Dst: 3, Bytes: 32, Inject: 0}, nil)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	log := net.Log()
	if len(log) != 1 {
		t.Fatalf("got %d deliveries", len(log))
	}
	d := log[0]
	if d.Status != mesh.StatusDelivered {
		t.Fatalf("not delivered: %+v", d)
	}
	if d.Faults&mesh.FaultRerouted == 0 {
		t.Fatalf("not flagged rerouted: %v", d.Faults)
	}
	// The detour abandons the 1-hop wraparound for the 3-hop row walk.
	if d.Hops != 3 {
		t.Fatalf("detour took %d hops, want 3", d.Hops)
	}
	// Determinism survives the fault: an identical run is bit-identical.
	s2 := sim.New()
	net2 := mesh.New(s2, mesh.DefaultConfig(mesh.TorusTopology, 4, 4))
	sched2, _ := fault.Parse("down:0<->3@0ns", 11)
	net2.SetFaults(sched2)
	net2.Inject(mesh.Message{Src: 0, Dst: 3, Bytes: 32, Inject: 0}, nil)
	if err := s2.Run(); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(log, net2.Log()) {
		t.Fatal("equal torus fault runs diverged")
	}
}

// TestFatTreeLinkFailure: a permanent fault on a fat tree's switch-to-
// switch link must detour through the other switches, and one that cuts
// a leaf off must fail its messages as partitioned. Both detour searches
// walk switch nodes beyond the endpoint ids, so they must not index out of
// range. In the 4-ary 2-tree, leaves are 0..15, level-0 switches 16..19
// and level-1 switches 20..23; 4->0 climbs 17->20 and descends 20->16.
func TestFatTreeLinkFailure(t *testing.T) {
	run := func(faults string) mesh.Delivery {
		t.Helper()
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.FatTreeTopology, 4, 2))
		sched, err := fault.Parse(faults, 11)
		if err != nil {
			t.Fatal(err)
		}
		net.SetFaults(sched)
		var got mesh.Delivery
		net.Inject(mesh.Message{Src: 4, Dst: 0, Bytes: 32, Inject: 0}, func(d mesh.Delivery) { got = d })
		if err := s.Run(); err != nil {
			t.Fatalf("%s: run: %v", faults, err)
		}
		return got
	}
	if d := run("down:16<->20@0ns"); d.Status != mesh.StatusDelivered || d.Faults&mesh.FaultRerouted == 0 {
		t.Fatalf("switch link failure: want a rerouted delivery, got %+v", d)
	}
	if d := run("down:0<->16@0ns"); d.Status != mesh.StatusFailed || d.Faults&mesh.FaultPartitioned == 0 {
		t.Fatalf("isolated leaf: want a partitioned failure, got %+v", d)
	}
}
