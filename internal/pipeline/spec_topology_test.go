package pipeline

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/cli"
	"commchar/internal/mesh"
	"commchar/internal/trace"
)

// TestSpecStringLegacyGolden pins the exact canonical bytes of a spec that
// predates the topology generalization, a 4x2 mesh, which such specs
// spelled in the mesh= slot. This string is hashed into every cache key,
// so any drift silently invalidates every on-disk artifact: the golden
// value is a compatibility contract, not a snapshot to regenerate.
func TestSpecStringLegacyGolden(t *testing.T) {
	spec := RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall, Dims: []int{4, 2}, VirtualChannels: 1}
	const want = "app=IS|procs=8|scale=0|cycle=0|cache=0|vcs=1|mesh=4x2|barrier=0|protocol=0|routing=0|faults=|faultseed=0|sp2=false|"
	if got := spec.String(); got != want {
		t.Fatalf("legacy spec string drifted:\n got %q\nwant %q", got, want)
	}
	// A 2-D mesh's Dims fill the mesh= slot and render nothing else.
	if s := spec.String(); strings.Contains(s, "topo=") || strings.Contains(s, "dims=") {
		t.Fatalf("legacy mesh shape leaked past the mesh= slot: %q", s)
	}
}

// TestKeyStableForDefaultTopology: the cache key of a default-topology
// spec is byte-identical whether the Topology/Dims fields exist unset or
// the spec was built by a pre-topology caller — and every non-zero value
// changes it.
func TestKeyStableForDefaultTopology(t *testing.T) {
	base := RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall}
	baseKey, err := base.Key("")
	if err != nil {
		t.Fatal(err)
	}

	explicit := base
	explicit.Topology = ""
	explicit.Dims = nil
	if k, _ := explicit.Key(""); k != baseKey {
		t.Fatal("explicitly zeroed topology fields changed the key")
	}

	topo := base
	topo.Topology = "torus3d"
	topoKey, err := topo.Key("")
	if err != nil {
		t.Fatal(err)
	}
	if topoKey == baseKey {
		t.Fatal("Topology not part of the cache key")
	}

	dims := topo
	dims.Dims = []int{3, 3, 3}
	dimsKey, err := dims.Key("")
	if err != nil {
		t.Fatal(err)
	}
	if dimsKey == topoKey {
		t.Fatal("Dims not part of the cache key")
	}
	if !strings.Contains(dims.String(), "topo=torus3d|dims=3x3x3|") {
		t.Fatalf("topology rendering drifted: %q", dims.String())
	}
}

// TestMachineResolvesEverySpelling: the default fabric, its derived shape
// spelled out, and the mesh named explicitly resolve to one machine, and
// the spec's overrides land on it. A 2-D mesh's Dims fill the legacy
// mesh= slot of the spec string.
func TestMachineResolvesEverySpelling(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		want, err := RunSpec{App: "IS", Procs: n}.Machine()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for name, spec := range map[string]RunSpec{
			"dims": {App: "IS", Procs: n, Dims: mesh.DefaultGrid(n)},
			"mesh": {App: "IS", Procs: n, Topology: "mesh"},
		} {
			got, err := spec.Machine()
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: machine %+v, want %+v", n, name, got, want)
			}
		}
	}

	spec := RunSpec{App: "IS", Procs: 8, Dims: []int{4, 2}, CycleTime: 10,
		VirtualChannels: 3, Routing: mesh.RoutingWestFirst}
	cfg, err := spec.Machine()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Dims, []int{4, 2}) || cfg.CycleTime != 10 ||
		cfg.VirtualChannels != 3 || cfg.Routing != mesh.RoutingWestFirst {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if s := spec.String(); !strings.Contains(s, "|mesh=4x2|") || strings.Contains(s, "dims=") {
		t.Errorf("2-D mesh dims left the legacy slot: %q", s)
	}
}

// TestValidateFailsFastOnTopologyInvalidSpecs: a spec naming an unknown
// fabric, a shape too small for its processors, a default fabric past
// mesh.MaxEndpoints, or a lane count below the fabric's deadlock-freedom
// floor is rejected as a usage error (exit code 2) before any simulation
// state exists. Only validate runs here: an engine handed the oversized
// spec would try to simulate it.
func TestValidateFailsFastOnTopologyInvalidSpecs(t *testing.T) {
	cases := map[string]RunSpec{
		"unknown fabric": {App: "IS", Procs: 8, Topology: "nosuch"},
		"torus one lane": {App: "IS", Procs: 8, Topology: "torus", VirtualChannels: 1},
		"hypercube too small": {App: "IS", Procs: 16, Topology: "hypercube",
			Dims: []int{3}},
		"fattree bad dims": {App: "IS", Procs: 8, Topology: "fattree",
			Dims: []int{4}},
		"dragonfly one lane": {App: "IS", Procs: 8, Topology: "dragonfly",
			VirtualChannels: 1},
		// The default fabric is checked too: at the cap it cannot be built.
		"default mesh too large": {App: "IS", Procs: mesh.MaxEndpoints + 1},
		"bad fault schedule":     {App: "IS", Procs: 8, Faults: "nonsense"},
	}
	for name, spec := range cases {
		err := spec.validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var ue *cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: %v is not a usage error", name, err)
		}
	}

	// The same shapes sized correctly pass.
	good := []RunSpec{
		{App: "IS", Procs: 8, Topology: "torus3d"},
		{App: "IS", Procs: 16, Topology: "hypercube", Dims: []int{4}},
		{App: "IS", Procs: 8, Topology: "fattree", Dims: []int{4, 2}},
		{App: "IS", Procs: 8, Topology: "dragonfly"},
	}
	for _, spec := range good {
		if err := spec.validate(); err != nil {
			t.Errorf("%+v rejected: %v", spec, err)
		}
	}
}

// TestTraceSpecKeyGolden pins the cache key of a trace spec on a 2x2 mesh
// with one lane, a shape older meshsim builds wrote. Key hashes the trace's
// WriteCSV bytes, so if that format moved every cached replay would be
// orphaned: like the legacy spec string, the value is a compatibility
// contract, not a snapshot to regenerate.
func TestTraceSpecKeyGolden(t *testing.T) {
	tr := trace.New(4)
	for r := range 4 {
		tr.Add(r, trace.Event{Op: trace.OpSend, Peer: (r + 1) % 4, Bytes: 64 << r, Tag: -1048578, Compute: 1500})
		tr.Add(r, trace.Event{Op: trace.OpRecv, Peer: (r + 3) % 4, Tag: -1048578, Compute: -7})
	}
	spec := RunSpec{Trace: tr, Procs: 4, Dims: []int{2, 2}, VirtualChannels: 1, Faults: "drop:0.01", FaultSeed: 7}
	const want = "72c52c56f126e6d8a2ffc200943010146293ee82dc7fcd949a8c905c306511f5"
	got, err := spec.Key("")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("trace spec key drifted:\n got %s\nwant %s", got, want)
	}
}
