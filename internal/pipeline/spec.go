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
	Width, Height   int                   // mesh geometry (both or neither)
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
	// historical 2-D mesh and render nothing into the spec string, so
	// existing cache keys stay valid.
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

	// Watchdog bounds the run (trace replay only). It is not part of the
	// cache key: a tripped watchdog fails the run, and failed runs are
	// never cached. The engine's Options.SpecTimeout bounds its wall
	// time the same way.
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

// validate rejects malformed specs before any simulation runs.
// Topology-invalid specs — unknown fabric name, a shape too small for
// Procs, a lane count below the fabric's deadlock-freedom floor — are
// usage errors (exit code 2): the sweep fails fast here instead of
// mid-replay.
func (s RunSpec) validate() error {
	if (s.App == "") == (s.Trace == nil) {
		return fmt.Errorf("pipeline: spec needs exactly one of App or Trace")
	}
	if s.Procs < 2 {
		return cli.Usagef("pipeline: %d processors (need at least 2)", s.Procs)
	}
	if (s.Width > 0) != (s.Height > 0) {
		return cli.Usagef("pipeline: mesh override needs both Width and Height")
	}
	if s.Width > 0 && s.Width*s.Height < s.Procs {
		return cli.Usagef("pipeline: %dx%d mesh too small for %d processors", s.Width, s.Height, s.Procs)
	}
	if s.Topology != "" || s.Dims != nil {
		if s.Width > 0 && s.Topology != "mesh" {
			return cli.Usagef("pipeline: Width/Height override applies to the mesh topology only, not %q", s.Topology)
		}
		cfg, err := core.TopologyFor(s.Topology, s.Dims, s.Procs)
		if err != nil {
			return cli.Usagef("pipeline: %v", err)
		}
		if s.VirtualChannels > 0 {
			cfg.VirtualChannels = s.VirtualChannels
		}
		cfg.Routing = s.Routing
		if err := cfg.Validate(); err != nil {
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
// its stability is a compatibility contract: zero-valued Topology/Dims
// render nothing, keeping keys from before the topology generalization
// valid.
func (s RunSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app=%s|procs=%d|scale=%d|", s.App, s.Procs, s.Scale)
	fmt.Fprintf(&b, "cycle=%d|cache=%d|vcs=%d|mesh=%dx%d|barrier=%d|protocol=%d|routing=%d|",
		s.CycleTime, s.CacheBytes, s.VirtualChannels, s.Width, s.Height, s.Barrier, s.Protocol, s.Routing)
	fmt.Fprintf(&b, "faults=%s|faultseed=%d|sp2=%t|", s.Faults, s.FaultSeed, s.UseSP2)
	if s.Topology != "" {
		fmt.Fprintf(&b, "topo=%s|", s.Topology)
	}
	if len(s.Dims) > 0 {
		b.WriteString("dims=")
		for i, d := range s.Dims {
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
