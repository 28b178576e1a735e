package pipeline

import (
	"errors"
	"strings"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/cli"
	"commchar/internal/trace"
)

// TestSpecStringLegacyGolden pins the exact canonical bytes of a spec that
// predates the topology generalization. This string is hashed into every
// cache key, so any drift silently invalidates every
// on-disk artifact: the golden value is a compatibility contract, not a
// snapshot to regenerate.
func TestSpecStringLegacyGolden(t *testing.T) {
	spec := RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall, Width: 4, Height: 2, VirtualChannels: 1}
	const want = "app=IS|procs=8|scale=0|cycle=0|cache=0|vcs=1|mesh=4x2|barrier=0|protocol=0|routing=0|faults=|faultseed=0|sp2=false|"
	if got := spec.String(); got != want {
		t.Fatalf("legacy spec string drifted:\n got %q\nwant %q", got, want)
	}
	// Zero-valued Topology/Dims must render nothing at all.
	if s := spec.String(); strings.Contains(s, "topo=") || strings.Contains(s, "dims=") {
		t.Fatalf("zero-valued topology leaked into the spec string: %q", s)
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

// TestValidateFailsFastOnTopologyInvalidSpecs: a spec naming an unknown
// fabric, a shape too small for its processors, or a lane count below the
// fabric's deadlock-freedom floor is rejected as a usage error (exit code
// 2) before any simulation state exists.
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
		"width override off-mesh": {App: "IS", Procs: 8, Topology: "torus3d",
			Width: 4, Height: 2},
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

// TestTraceSpecKeyGolden pins the cache key of a trace spec shaped as
// meshsim builds one for the default mesh. Key hashes the trace's
// WriteCSV bytes, so if that format moved every cached replay would be
// orphaned: like the legacy spec string, the value is a compatibility
// contract, not a snapshot to regenerate.
func TestTraceSpecKeyGolden(t *testing.T) {
	tr := trace.New(4)
	for r := range 4 {
		tr.Add(r, trace.Event{Op: trace.OpSend, Peer: (r + 1) % 4, Bytes: 64 << r, Tag: -1048578, Compute: 1500})
		tr.Add(r, trace.Event{Op: trace.OpRecv, Peer: (r + 3) % 4, Tag: -1048578, Compute: -7})
	}
	spec := RunSpec{Trace: tr, Procs: 4, Width: 2, Height: 2, VirtualChannels: 1, Faults: "drop:0.01", FaultSeed: 7}
	const want = "72c52c56f126e6d8a2ffc200943010146293ee82dc7fcd949a8c905c306511f5"
	got, err := spec.Key("")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("trace spec key drifted:\n got %s\nwant %s", got, want)
	}
}
