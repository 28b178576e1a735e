package mesh_test

import (
	"fmt"
	"testing"

	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// TestWarmWormAllocFree pins the per-message cost of a warm network, the
// contract every message of both acquisition strategies runs under: once
// the route cache, the worm free list, the link queues, the calendar and
// the search scratch have grown, a message allocates nothing, bar one
// detour path per rerouted message and one error value per failed one.
// It covers every fabric family at 16 processors, west-first routing and
// two virtual channels, under every fault class, for a lone
// corner-to-corner worm and for a burst of eight contending for its path.
func TestWarmWormAllocFree(t *testing.T) {
	const procs = 16
	type fabric struct {
		name string
		cfg  mesh.Config
	}
	var fabrics []fabric
	for _, name := range core.TopologyNames() {
		cfg, err := core.TopologyFor(name, nil, procs)
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, fabric{name, cfg})
	}
	westFirst := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	westFirst.Routing = mesh.RoutingWestFirst
	twoLanes := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
	twoLanes.VirtualChannels = 2
	fabrics = append(fabrics, fabric{"westfirst4x4", westFirst}, fabric{"mesh4x4-2vc", twoLanes})

	// Each fault class is built over the first link the worm crosses, and
	// at least one message must meet one of its hits. perMsg is what a
	// message costs beyond zero: a transient outage that outlasts every
	// retry fails it (one ErrExhausted), and a permanent one either
	// reroutes it (one detour path) or, where no detour exists or the
	// router cannot follow one, fails it (one error value).
	faults := []struct {
		name   string
		spec   func(from, to int) string
		hits   mesh.FaultFlags
		perMsg float64
	}{
		{"none", func(int, int) string { return "" }, 0, 0},
		{"slow", func(from, to int) string { return fmt.Sprintf("slow:%d<->%d:x4", from, to) }, mesh.FaultSlowed, 0},
		{"drop", func(int, int) string { return "drop:0.02" }, mesh.FaultDropped, 0},
		{"corrupt", func(int, int) string { return "corrupt:0.1" }, mesh.FaultCorrupted, 0},
		{"transient-down", func(from, to int) string { return fmt.Sprintf("down:%d<->%d@0ns-1s", from, to) },
			mesh.FaultLinkDown, 1},
		{"permanent-down", func(from, to int) string { return fmt.Sprintf("down:%d<->%d@0ns", from, to) },
			mesh.FaultRerouted | mesh.FaultPartitioned | mesh.FaultLinkDown, 1},
	}

	for _, fab := range fabrics {
		for _, fc := range faults {
			for _, burst := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/burst%d", fab.name, fc.name, burst), func(t *testing.T) {
					s := sim.New()
					n := mesh.New(s, fab.cfg)
					src, dst := 0, n.Topology().Endpoints()-1
					first := n.Path(src, dst)[0]
					if spec := fc.spec(first[0], first[1]); spec != "" {
						sched, err := fault.Parse(spec, 1)
						if err != nil {
							t.Fatal(err)
						}
						n.SetFaults(sched)
					}
					send := func() {
						for range burst {
							n.Inject(mesh.Message{Src: src, Dst: dst, Bytes: 64, Inject: s.Now()}, nil)
						}
						if err := s.Run(); err != nil {
							t.Fatal(err)
						}
					}
					send()
					want := fc.perMsg * float64(burst)
					if got := testing.AllocsPerRun(100, send); got != want {
						t.Errorf("%v allocations per burst of %d, want %v", got, burst, want)
					}
					checkOutcomes(t, n.Log(), fc.hits, fc.perMsg)
				})
			}
		}
	}
}

// checkOutcomes confirms that the fault class was met and that every
// message had the fate it is charged for: a free message was delivered on
// its own route, and a charged one was either rerouted or failed.
func checkOutcomes(t *testing.T, log []mesh.Delivery, hits mesh.FaultFlags, perMsg float64) {
	t.Helper()
	met := hits == 0
	for _, d := range log {
		met = met || d.Faults&hits != 0
		failed := d.Status == mesh.StatusFailed
		rerouted := d.Faults&mesh.FaultRerouted != 0
		if charged := failed || rerouted; charged != (perMsg > 0) || failed && rerouted {
			t.Fatalf("message %d: status %v, faults %v, for %v allocations per message", d.ID, d.Status, d.Faults, perMsg)
		}
	}
	if !met {
		t.Errorf("no message met any of %v", hits)
	}
}

// TestComputeRouteAllocatesOnce pins the cold routing step: once the
// network's route scratch has grown, materializing a (src, dst) path
// allocates only the path the route cache keeps, on every fabric of the
// engine digest table.
func TestComputeRouteAllocatesOnce(t *testing.T) {
	for _, fab := range goldenFabrics {
		t.Run(fab.name, func(t *testing.T) {
			n := mesh.New(sim.New(), fab.cfg())
			eps := n.Topology().Endpoints()
			route := func() {
				for src := range eps {
					for dst := range eps {
						if src != dst {
							n.ComputeRouteLen(src, dst)
						}
					}
				}
			}
			route() // grow the scratch to the longest route
			pairs := eps * (eps - 1)
			if allocs := testing.AllocsPerRun(10, route); allocs != float64(pairs) {
				t.Fatalf("%v allocations for %d routes, want one per route", allocs, pairs)
			}
		})
	}
}
