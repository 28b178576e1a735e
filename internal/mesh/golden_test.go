package mesh_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// goldenFabrics are the fabrics the engine digest table covers, one per
// routing discipline the engine distinguishes.
var goldenFabrics = []struct {
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

// goldenSchedules are the fault schedules of the digest table, built
// over the fabric's own links: A (a link of the middle endpoint) suffers a
// transient outage, B (a link of the last node, a switch where the fabric
// has switches) fails for good, C runs slow. The mix also cuts the last
// endpoint off for good and drops every traversal in a window longer than
// the whole retry schedule, so it covers partitions and exhaustion too.
// The cancelled row reruns the drop schedule and cancels the run part way.
var goldenSchedules = []struct {
	name     string
	spec     func(topo mesh.Topology) string
	cancelAt sim.Time // 0: run to completion
}{
	{"none", func(mesh.Topology) string { return "" }, 0},
	{"drop", func(mesh.Topology) string { return "drop:0.03" }, 0},
	{"corrupt", func(mesh.Topology) string { return "corrupt:0.05" }, 0},
	{"transient", func(topo mesh.Topology) string {
		a, c := linkA(topo), linkC(topo)
		return fmt.Sprintf("down:%d<->%d@2us-20us;slow:%d->%d:x4", a[0], a[1], c[0], c[1])
	}, 0},
	{"permanent", func(topo mesh.Topology) string {
		b := linkB(topo)
		return fmt.Sprintf("down:%d<->%d@5us", b[0], b[1])
	}, 0},
	{"mix", func(topo mesh.Topology) string {
		a, b, c := linkA(topo), linkB(topo), linkC(topo)
		spec := fmt.Sprintf("drop:0.02;corrupt:0.02;drop:1@40us-80us;down:%d<->%d@3us-15us;down:%d<->%d@10us;slow:%d->%d:x3",
			a[0], a[1], b[0], b[1], c[0], c[1])
		last := topo.Endpoints() - 1
		for port := 0; port < topo.Degree(last); port++ {
			if to := topo.Neighbor(last, port); to >= 0 {
				spec += fmt.Sprintf(";down:%d<->%d@30us", last, to)
			}
		}
		return spec
	}, 0},
	{"cancelled", func(mesh.Topology) string { return "drop:0.03" }, 20 * sim.Time(sim.Microsecond)},
}

func linkA(topo mesh.Topology) [2]int { return wiredLink(topo, topo.Endpoints()/2) }
func linkB(topo mesh.Topology) [2]int { return wiredLink(topo, topo.Nodes()-1) }
func linkC(topo mesh.Topology) [2]int { return wiredLink(topo, 1) }

// goldenDigests pins the engine's observable output for every (fabric,
// schedule) pair: the delivery log, link statistics, failures, event
// count and final clock. A change to the engine's mechanism that is
// meant to keep behaviour must leave every entry unchanged.
var goldenDigests = map[string]string{
	"mesh4x4/none":           "c32343c7eb8c5a87",
	"mesh4x4/drop":           "41887cfdff49de3e",
	"mesh4x4/corrupt":        "162a78f674f28177",
	"mesh4x4/transient":      "bd4ae73a61c9ba83",
	"mesh4x4/permanent":      "3a83f424f0044a6f",
	"mesh4x4/mix":            "828d54478ff1a647",
	"mesh4x4/cancelled":      "9ea9c451e27ae544",
	"westfirst4x4/none":      "6715601b88d0406f",
	"westfirst4x4/drop":      "3e23686e44ba34c9",
	"westfirst4x4/corrupt":   "bc972d1a0c80fd4f",
	"westfirst4x4/transient": "76be6e522f3723aa",
	"westfirst4x4/permanent": "6e935e07b27ced45",
	"westfirst4x4/mix":       "7c06c7ba9fe1c009",
	"westfirst4x4/cancelled": "f0bb7acd54dba629",
	"torus4x4/none":          "32e7e38f705df3ad",
	"torus4x4/drop":          "4d8c50f13afdead0",
	"torus4x4/corrupt":       "b85006b73a25dc77",
	"torus4x4/transient":     "303b90659a386e79",
	"torus4x4/permanent":     "36ad1fbe420479e2",
	"torus4x4/mix":           "b777650ac2784bda",
	"torus4x4/cancelled":     "4c4d44c413d44435",
	"hypercube4/none":        "8b14507f24b7cb77",
	"hypercube4/drop":        "dc161811a4d3295e",
	"hypercube4/corrupt":     "7f8726fb6f5463ae",
	"hypercube4/transient":   "0b051cda736f31d6",
	"hypercube4/permanent":   "f19b4cb1aebf2e09",
	"hypercube4/mix":         "9a46ae3ece675911",
	"hypercube4/cancelled":   "05cc4c05c3c35196",
	"fattree4x2/none":        "2265f3e90ce84dca",
	"fattree4x2/drop":        "c7204a81572ba45e",
	"fattree4x2/corrupt":     "874b0086ee7e0eca",
	"fattree4x2/transient":   "61e23bda2adb46ef",
	"fattree4x2/permanent":   "2e7f8452b0ebb8fd",
	"fattree4x2/mix":         "f5a62f9851fe0013",
	"fattree4x2/cancelled":   "d3cfbff7f13ee33c",
	"dragonfly2x2/none":      "a83f44c92636330e",
	"dragonfly2x2/drop":      "730aa2e5297190ff",
	"dragonfly2x2/corrupt":   "b73f8a3e97061ad9",
	"dragonfly2x2/transient": "0cafd41e6334ce94",
	"dragonfly2x2/permanent": "f68752280a2196fa",
	"dragonfly2x2/mix":       "cae924818af1d624",
	"dragonfly2x2/cancelled": "253634c8d69d7d7c",
}

// wiredLink returns the first wired port of node as a (from, to) pair.
func wiredLink(topo mesh.Topology, node int) [2]int {
	for port := 0; port < topo.Degree(node); port++ {
		if to := topo.Neighbor(node, port); to >= 0 {
			return [2]int{node, to}
		}
	}
	panic(fmt.Sprintf("node %d has no wired port", node))
}

// goldenRun drives seeded request traffic through a network, chaining a
// reply from every delivered request's done callback (as coherence acks
// do), and digests everything the run exposes.
func goldenRun(t *testing.T, cfg mesh.Config, spec func(mesh.Topology) string, cancelAt sim.Time) string {
	t.Helper()
	s := sim.New()
	net := mesh.New(s, cfg)
	topo := net.Topology()
	eps := topo.Endpoints()
	if text := spec(topo); text != "" {
		sched, err := fault.Parse(text, 17)
		if err != nil {
			t.Fatal(err)
		}
		net.SetFaults(sched)
	}

	lengths := []int{8, 32, 64, 200}
	st := sim.NewStream(0x5EED)
	reply := func(d mesh.Delivery) {
		if d.Status != mesh.StatusDelivered {
			return
		}
		net.Inject(mesh.Message{Src: int(d.Dst), Dst: int(d.Src), Bytes: 16, Inject: d.End}, nil)
	}
	for src := 0; src < eps; src++ {
		at := sim.Time(0)
		for i := 0; i < 30; i++ {
			at += sim.Time(st.Exponential(2000)) + 1
			m := mesh.Message{Src: src, Dst: st.IntN(eps),
				Bytes: lengths[st.IntN(len(lengths))], Inject: at}
			net.Inject(m, reply)
		}
	}
	if cancelAt > 0 {
		// Cancel mid-run, then drain the calendar the way a caller
		// salvaging a stopped run does: every worm that reaches the start
		// of an attempt after the cancellation gives itself up.
		ctx, cancel := context.WithCancel(context.Background())
		s.SetContext(ctx)
		s.RunUntil(cancelAt)
		cancel()
		for s.Step() {
		}
	} else {
		s.SetWatchdog(sim.Watchdog{MaxEvents: 5_000_000})
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if net.InFlight() != 0 {
		t.Fatalf("%d messages still in flight", net.InFlight())
	}

	h := sha256.New()
	for _, d := range net.Log() {
		writeDelivery(h, d)
	}
	for _, ls := range net.LinkStats() {
		fmt.Fprintf(h, "%+v\n", ls)
	}
	for _, err := range net.Failures() {
		fmt.Fprintln(h, err)
	}
	fmt.Fprintf(h, "events %d now %d\n", s.EventsFired(), s.Now())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeDelivery writes d field by field in the text the digest table was
// recorded with: the %+v form of a Delivery that stored its latency.
func writeDelivery(w io.Writer, d mesh.Delivery) {
	fmt.Fprintf(w, "{Message:{ID:%d Src:%d Dst:%d Bytes:%d Inject:%d} End:%d Latency:%d Blocked:%d Hops:%d Retries:%d Faults:%v Status:%d}\n",
		d.ID, d.Src, d.Dst, d.Bytes, d.Inject, d.End, d.End-d.Inject, d.Blocked, d.Hops, d.Retries, d.Faults, d.Status)
}

// TestEngineGoldenDigests pins the wormhole engine's output on every
// fabric under every fault class, so a rewrite of its mechanism can be
// checked for byte identity against the digests recorded before it.
func TestEngineGoldenDigests(t *testing.T) {
	for _, f := range goldenFabrics {
		for _, sc := range goldenSchedules {
			name := f.name + "/" + sc.name
			t.Run(name, func(t *testing.T) {
				got := goldenRun(t, f.cfg(), sc.spec, sc.cancelAt)
				if want := goldenDigests[name]; got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
}
