package core

import (
	"strings"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// TestTopologyForDefaultIsLegacyMesh: the empty selector must reproduce
// the historical standard mesh geometry exactly — callers that never
// heard of topologies keep simulating the identical machine.
func TestTopologyForDefaultIsLegacyMesh(t *testing.T) {
	for _, procs := range []int{2, 4, 5, 16, 33} {
		got, err := TopologyFor("", nil, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want := mesh.DefaultGrid(procs)
		if len(got.Dims) != 2 || got.Dims[0] != want[0] || got.Dims[1] != want[1] || got.Topology != mesh.MeshTopology {
			t.Errorf("procs=%d: TopologyFor = %v %v, DefaultGrid = %v mesh",
				procs, got.Dims, got.Topology, want)
		}
	}
}

// TestTopologyForDerivedShapes pins the derived standard instance per
// fabric at 16 processors.
func TestTopologyForDerivedShapes(t *testing.T) {
	want := map[string]string{
		"mesh":      "mesh4x4",
		"torus":     "torus4x4",
		"torus3d":   "torus3x3x3",
		"torus4d":   "torus2x2x2x2",
		"hypercube": "hypercube4d",
		"fattree":   "fattree4:2",
		"dragonfly": "dragonfly a4h1",
	}
	for sel, name := range want {
		cfg, err := TopologyFor(sel, nil, 16)
		if err != nil {
			t.Errorf("%s: %v", sel, err)
			continue
		}
		fab := cfg.Fabric()
		if fab.Name() != name {
			t.Errorf("%s at 16 procs derives %q, want %q", sel, fab.Name(), name)
		}
		if fab.Endpoints() < 16 {
			t.Errorf("%s: derived %d endpoints for 16 procs", sel, fab.Endpoints())
		}
		if cfg.VirtualChannels < fab.MinVirtualChannels() {
			t.Errorf("%s: %d VCs below the fabric floor %d",
				sel, cfg.VirtualChannels, fab.MinVirtualChannels())
		}
	}
}

// TestTopologyForRejects: unknown selectors, undersized explicit shapes,
// and malformed dims fail with a descriptive error.
func TestTopologyForRejects(t *testing.T) {
	cases := []struct {
		sel  string
		dims []int
	}{
		{"nosuch", nil},
		{"hypercube", []int{3}},    // 8 endpoints < 16 procs
		{"hypercube", []int{2, 2}}, // hypercube takes one value
		{"fattree", []int{4}},      // fattree takes [arity, levels]
		{"dragonfly", []int{2}},    // dragonfly takes [routers, globals]
		{"torus", []int{1, 16}},    // torus dimension below 2
		{"mesh", []int{2, 2}},      // 4 endpoints < 16 procs
	}
	for _, c := range cases {
		if _, err := TopologyFor(c.sel, c.dims, 16); err == nil {
			t.Errorf("TopologyFor(%q, %v, 16) accepted", c.sel, c.dims)
		}
	}
}

// TestTopologyForExplicitDims: pinned shapes override derivation.
func TestTopologyForExplicitDims(t *testing.T) {
	cfg, err := TopologyFor("torus", []int{4, 4, 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if name := cfg.Fabric().Name(); name != "torus4x4x4" {
		t.Fatalf("pinned torus renders %q", name)
	}
	if cfg.Topology != mesh.TorusTopology || cfg.VirtualChannels != 2 {
		t.Fatalf("pinned torus config wrong: %+v", cfg)
	}
}

// TestTopologyNamesMatchBuilders: the advertised selector list is exactly
// the buildable set, sorted.
func TestTopologyNamesMatchBuilders(t *testing.T) {
	names := TopologyNames()
	if len(names) != len(topologyBuilders) {
		t.Fatalf("%d names for %d builders", len(names), len(topologyBuilders))
	}
	for i, n := range names {
		if _, ok := topologyBuilders[n]; !ok {
			t.Errorf("name %q has no builder", n)
		}
		if i > 0 && names[i-1] >= n {
			t.Errorf("names not sorted at %q", n)
		}
	}
}

func TestParseDims(t *testing.T) {
	good := map[string][]int{
		"":       nil,
		"4":      {4},
		"4,4,4":  {4, 4, 4},
		" 2, 3 ": {2, 3},
	}
	for in, want := range good {
		got, err := ParseDims(in)
		if err != nil {
			t.Errorf("ParseDims(%q): %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("ParseDims(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("ParseDims(%q) = %v, want %v", in, got, want)
				break
			}
		}
	}
	for _, in := range []string{"x", "4,", "0", "-1", "4,,4", "4.5"} {
		if _, err := ParseDims(in); err == nil {
			t.Errorf("ParseDims(%q) accepted", in)
		} else if !strings.Contains(err.Error(), "dimension") {
			t.Errorf("ParseDims(%q) error %q lacks context", in, err)
		}
	}
}

// TestTopologyForFabricIdentity pins the machine every selector builds:
// for each derived size and each explicit shape used above, the fabric's
// name, endpoint and node counts, lane count, and flit cycle. An empty
// name means TopologyFor must reject the request.
func TestTopologyForFabricIdentity(t *testing.T) {
	cases := []struct {
		sel                   string
		dims                  []int
		procs                 int
		name                  string
		endpoints, nodes, vcs int
		cycle                 sim.Duration
	}{
		{"dragonfly", nil, 2, "dragonfly a2h1", 6, 6, 2, 25},
		{"dragonfly", nil, 4, "dragonfly a2h1", 6, 6, 2, 25},
		{"dragonfly", nil, 8, "dragonfly a3h1", 12, 12, 2, 25},
		{"dragonfly", nil, 16, "dragonfly a4h1", 20, 20, 2, 25},
		{"dragonfly", nil, 64, "dragonfly a8h1", 72, 72, 2, 25},
		{"fattree", nil, 2, "fattree4:1", 4, 5, 1, 25},
		{"fattree", nil, 4, "fattree4:1", 4, 5, 1, 25},
		{"fattree", nil, 8, "fattree4:2", 16, 24, 1, 25},
		{"fattree", nil, 16, "fattree4:2", 16, 24, 1, 25},
		{"fattree", nil, 64, "fattree4:3", 64, 112, 1, 25},
		{"hypercube", nil, 2, "hypercube1d", 2, 2, 1, 25},
		{"hypercube", nil, 4, "hypercube2d", 4, 4, 1, 25},
		{"hypercube", nil, 8, "hypercube3d", 8, 8, 1, 25},
		{"hypercube", nil, 16, "hypercube4d", 16, 16, 1, 25},
		{"hypercube", nil, 64, "hypercube6d", 64, 64, 1, 25},
		{"mesh", nil, 2, "mesh2x1", 2, 2, 1, 25},
		{"mesh", nil, 4, "mesh4x1", 4, 4, 1, 25},
		{"mesh", nil, 8, "mesh4x2", 8, 8, 1, 25},
		{"mesh", nil, 16, "mesh4x4", 16, 16, 1, 25},
		{"mesh", nil, 64, "mesh4x16", 64, 64, 1, 25},
		{"torus", nil, 2, "torus2x2", 4, 4, 2, 25},
		{"torus", nil, 4, "torus2x2", 4, 4, 2, 25},
		{"torus", nil, 8, "torus3x3", 9, 9, 2, 25},
		{"torus", nil, 16, "torus4x4", 16, 16, 2, 25},
		{"torus", nil, 64, "torus8x8", 64, 64, 2, 25},
		{"torus3d", nil, 2, "torus2x2x2", 8, 8, 2, 25},
		{"torus3d", nil, 4, "torus2x2x2", 8, 8, 2, 25},
		{"torus3d", nil, 8, "torus2x2x2", 8, 8, 2, 25},
		{"torus3d", nil, 16, "torus3x3x3", 27, 27, 2, 25},
		{"torus3d", nil, 64, "torus4x4x4", 64, 64, 2, 25},
		{"torus4d", nil, 2, "torus2x2x2x2", 16, 16, 2, 25},
		{"torus4d", nil, 4, "torus2x2x2x2", 16, 16, 2, 25},
		{"torus4d", nil, 8, "torus2x2x2x2", 16, 16, 2, 25},
		{"torus4d", nil, 16, "torus2x2x2x2", 16, 16, 2, 25},
		{"torus4d", nil, 64, "torus3x3x3x3", 81, 81, 2, 25},
		{"torus", []int{4, 4, 4}, 16, "torus4x4x4", 64, 64, 2, 25},
		{"nosuch", nil, 16, "", 0, 0, 0, 0},
		{"hypercube", []int{3}, 16, "", 0, 0, 0, 0},
		{"hypercube", []int{2, 2}, 16, "", 0, 0, 0, 0},
		{"fattree", []int{4}, 16, "", 0, 0, 0, 0},
		{"dragonfly", []int{2}, 16, "", 0, 0, 0, 0},
		{"torus", []int{1, 16}, 16, "", 0, 0, 0, 0},
		{"mesh", []int{2, 2}, 16, "", 0, 0, 0, 0},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.sel] = true
		cfg, err := TopologyFor(c.sel, c.dims, c.procs)
		if c.name == "" {
			if err == nil {
				t.Errorf("TopologyFor(%q, %v, %d) accepted", c.sel, c.dims, c.procs)
			}
			continue
		}
		if err != nil {
			t.Errorf("TopologyFor(%q, %v, %d): %v", c.sel, c.dims, c.procs, err)
			continue
		}
		fab := cfg.Fabric()
		if fab.Name() != c.name || fab.Endpoints() != c.endpoints || fab.Nodes() != c.nodes ||
			cfg.VirtualChannels != c.vcs || cfg.CycleTime != c.cycle {
			t.Errorf("TopologyFor(%q, %v, %d) = %s, %d endpoints / %d nodes, %d VCs, %v cycle; want %s, %d / %d, %d VCs, %v",
				c.sel, c.dims, c.procs, fab.Name(), fab.Endpoints(), fab.Nodes(), cfg.VirtualChannels, cfg.CycleTime,
				c.name, c.endpoints, c.nodes, c.vcs, c.cycle)
		}
	}
	for _, sel := range TopologyNames() {
		if !covered[sel] {
			t.Errorf("selector %q has no pinned fabric", sel)
		}
	}
}
