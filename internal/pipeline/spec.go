package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"commchar/internal/apps"
	"commchar/internal/ccnuma"
	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/spasm"
	"commchar/internal/trace"
)

// DefaultSalt is the code-version component of every cache key. Bump it
// whenever a change to the simulators or the analysis alters what a spec
// produces, so stale on-disk artifacts invalidate themselves.
const DefaultSalt = "commchar-pipeline-v2"

// RunSpec names one characterization run: which application (or trace) to
// acquire, on how many processors, at what scale, and under which machine
// configuration. Two specs with equal canonical keys produce bit-identical
// artifacts, which is what makes the run cacheable and deduplicatable.
//
// Zero-valued override fields mean "package default"; the defaults are
// part of the key, so changing an override never aliases a cached run.
type RunSpec struct {
	// App names a workload of the suite (see internal/apps). Mutually
	// exclusive with Trace.
	App   string
	Procs int
	Scale apps.Scale

	// Name labels the run in reports; defaults to App (or "trace").
	Name string

	// Machine overrides. Zero values select the package defaults.
	CycleTime       sim.Duration          // mesh flit-cycle time
	CacheBytes      int                   // per-processor cache capacity
	VirtualChannels int                   // lanes per physical link
	Barrier         spasm.BarrierKind     // barrier algorithm (dynamic strategy)
	Protocol        ccnuma.Protocol       // coherence protocol (dynamic strategy)
	Routing         mesh.RoutingAlgorithm // mesh routing algorithm

	// Topology selects the interconnect fabric by name (see
	// core.TopologyFor): "mesh" (the default when empty), "torus",
	// "torus3d", "torus4d", "hypercube", "fattree", or "dragonfly". Dims,
	// when non-nil, pins the fabric's shape instead of deriving the
	// smallest instance that fits Procs: per-dimension sizes for
	// mesh/torus*, [d] for a hypercube, [arity, levels] for a fat tree,
	// [routers, globals] for a dragonfly. The zero values select the
	// historical 2-D mesh. Machine resolves the two into the run's fabric.
	Topology string
	Dims     []int

	// Collectives selects the collective algorithm family of the static
	// strategy's native execution by name (see mp.AlgorithmNames):
	// "linear" (the default when empty) or "binomial". The zero value
	// renders nothing into the spec string, so existing cache keys stay
	// valid.
	Collectives string

	// Fault injection: a deterministic schedule (see internal/fault) and
	// its seed. Empty means a fault-free run.
	Faults    string
	FaultSeed uint64

	// Trace switches acquisition to trace replay: the trace is replayed
	// through the mesh instead of executing an application. The cache key
	// covers the full trace content.
	Trace *trace.Trace
	// UseSP2 charges IBM SP2 software overheads during trace replay.
	UseSP2 bool

	// Watchdog bounds the run's events and simulated time (trace replay
	// only). It is not part of the cache key: a tripped watchdog fails
	// the run, and failed runs are never cached. The engine's
	// Options.SpecTimeout is the run's one wall-clock budget and fails
	// it the same way.
	Watchdog sim.Watchdog
}

// Label returns the run's display name.
func (s RunSpec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	if s.App != "" {
		return s.App
	}
	return "trace"
}

// Machine resolves the spec's interconnect: the named fabric (the 2-D
// mesh when Topology is empty), sized for Procs unless Dims pins its
// shape, with the cycle-time, lane and routing overrides applied. Validate
// checks every spec through it and the engine builds every run from it,
// so the machine a spec is checked against is the machine it runs on.
func (s RunSpec) Machine() (mesh.Config, error) {
	cfg, err := core.TopologyFor(s.Topology, s.Dims, s.Procs)
	if err != nil {
		return mesh.Config{}, err
	}
	if s.CycleTime > 0 {
		cfg.CycleTime = s.CycleTime
	}
	if s.VirtualChannels > 0 {
		cfg.VirtualChannels = s.VirtualChannels
	}
	cfg.Routing = s.Routing
	if err := cfg.Validate(); err != nil {
		return mesh.Config{}, err
	}
	return cfg, nil
}

// Validate rejects malformed specs before any simulation runs. A machine
// a user typed — an unknown fabric name, a shape too small for Procs, a
// lane count below the fabric's deadlock-freedom floor, a bad fault
// schedule — is a usage error (exit code 2): the sweep fails fast here
// instead of mid-replay.
func (s RunSpec) Validate() error {
	if (s.App == "") == (s.Trace == nil) {
		return fmt.Errorf("pipeline: spec needs exactly one of App or Trace")
	}
	if s.Procs < 2 {
		return cli.Usagef("pipeline: %d processors (need at least 2)", s.Procs)
	}
	if _, err := s.Machine(); err != nil {
		return cli.Usagef("pipeline: %v", err)
	}
	if s.Faults != "" {
		if _, err := fault.Parse(s.Faults, s.FaultSeed); err != nil {
			return cli.Usagef("pipeline: %v", err)
		}
	}
	if s.Collectives != "" {
		if _, err := mp.ParseAlgorithm(s.Collectives); err != nil {
			return cli.Usagef("pipeline: %v", err)
		}
	}
	return nil
}

// String renders the spec's canonical machine-configuration string: every
// result-affecting field except the trace content, in a fixed order. It is
// the exact byte sequence hashed into the cache key (after the salt), so
// its stability is a compatibility contract. The mesh= slot is where specs
// from before the topology generalization spelled a 2-D mesh's shape: it
// holds Dims when Topology is empty and Dims has two values (and then no
// dims= field follows), and 0x0 otherwise. Zero-valued Topology and Dims
// render nothing, so those older keys stay valid.
func (s RunSpec) String() string {
	var b strings.Builder
	w, h, dims := 0, 0, s.Dims
	if s.Topology == "" && len(dims) == 2 {
		w, h, dims = dims[0], dims[1], nil
	}
	fmt.Fprintf(&b, "app=%s|procs=%d|scale=%d|", s.App, s.Procs, s.Scale)
	fmt.Fprintf(&b, "cycle=%d|cache=%d|vcs=%d|mesh=%dx%d|barrier=%d|protocol=%d|routing=%d|",
		s.CycleTime, s.CacheBytes, s.VirtualChannels, w, h, s.Barrier, s.Protocol, s.Routing)
	fmt.Fprintf(&b, "faults=%s|faultseed=%d|sp2=%t|", s.Faults, s.FaultSeed, s.UseSP2)
	if s.Topology != "" {
		fmt.Fprintf(&b, "topo=%s|", s.Topology)
	}
	if len(dims) > 0 {
		b.WriteString("dims=")
		for i, d := range dims {
			if i > 0 {
				b.WriteByte('x')
			}
			fmt.Fprintf(&b, "%d", d)
		}
		b.WriteByte('|')
	}
	if s.Collectives != "" {
		fmt.Fprintf(&b, "coll=%s|", s.Collectives)
	}
	return b.String()
}

// Key returns the spec's content-addressed cache key: a hex SHA-256 over
// the canonical rendering (String) of every result-affecting field plus
// the code-version salt. Trace specs hash the full trace content.
func (s RunSpec) Key(salt string) (string, error) {
	if salt == "" {
		salt = DefaultSalt
	}
	h := sha256.New()
	fmt.Fprintf(h, "salt=%s|", salt)
	io.WriteString(h, s.String())
	if s.Trace != nil {
		io.WriteString(h, "trace=")
		if err := s.Trace.WriteCSV(h); err != nil {
			return "", fmt.Errorf("pipeline: hashing trace: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
