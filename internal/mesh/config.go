// Package mesh implements the common network substrate of the paper: a
// wormhole-routed fabric with deterministic routing, per-link FCFS
// arbitration, optional virtual channels, and a network log of every
// message (or, for a caller that only measures, running totals). The
// wiring and routing live behind the Topology interface — 2-D mesh (the
// paper's machine), k-ary n-cube torus, binary hypercube, k-ary n-tree fat
// tree, and dragonfly — while the wormhole engine in Network is shared.
//
// Both workload acquisition strategies (execution-driven shared memory and
// trace-driven message passing) inject their messages here, exactly as in
// the paper, so that the characterization is performed on one common
// interconnect. The simulator records, for every message, its source,
// destination, length, injection time, network latency, and time lost to
// contention, plus per-link utilization.
package mesh

import (
	"fmt"
	"math"

	"commchar/internal/sim"
)

// Kind selects the fabric family built by Config.Fabric; Config.Dims
// sizes it.
type Kind int

const (
	// MeshTopology is the paper's 2-D mesh: no wraparound links. More
	// Dims generalize it to an n-dimensional mesh.
	MeshTopology Kind = iota
	// TorusTopology adds wraparound links in every dimension (a k-ary
	// n-cube; the QCDSP machine is the 4-D member). Dimension-order
	// routing on a torus needs two dateline lanes to stay deadlock-free.
	TorusTopology
	// HypercubeTopology is a binary d-cube with e-cube (dimension-order)
	// routing, the other wormhole fabric prominent in the paper's era
	// (cf. [4], [23]).
	HypercubeTopology
	// FatTreeTopology is the k-ary n-tree indirect fabric: processors at
	// the leaves, n levels of switches, deterministic up/down routing.
	FatTreeTopology
	// DragonflyTopology is the balanced two-tier direct fabric: groups of
	// routers joined by a complete graph, one endpoint per router, and a
	// fixed number of global links per router. Its minimal routing needs
	// two lanes.
	DragonflyTopology
)

func (t Kind) String() string {
	switch t {
	case MeshTopology:
		return "mesh"
	case TorusTopology:
		return "torus"
	case HypercubeTopology:
		return "hypercube"
	case FatTreeTopology:
		return "fattree"
	case DragonflyTopology:
		return "dragonfly"
	default:
		return fmt.Sprintf("Kind(%d)", int(t))
	}
}

// RoutingAlgorithm selects how the head flit picks its path.
type RoutingAlgorithm int

const (
	// RoutingDimensionOrder is the deterministic routing native to each
	// topology: XY on a grid, e-cube on a hypercube, up/down on a fat
	// tree, minimal on a dragonfly. The paper's configuration.
	RoutingDimensionOrder RoutingAlgorithm = iota
	// RoutingWestFirst is the minimal adaptive turn-model router for 2-D
	// meshes: all westward hops are taken first, after which the head
	// adaptively picks the least-loaded productive direction. Deadlock-
	// free by the turn-model argument; 2-D mesh topology only.
	RoutingWestFirst
)

func (r RoutingAlgorithm) String() string {
	switch r {
	case RoutingDimensionOrder:
		return "dimension-order"
	case RoutingWestFirst:
		return "west-first"
	default:
		return fmt.Sprintf("RoutingAlgorithm(%d)", int(r))
	}
}

// Config describes the network. The zero value is not usable; call
// DefaultConfig and adjust.
//
// Topology and Dims are the only description of the fabric's shape. Dims
// is read per kind:
//
//	mesh, torus  routers per grid dimension, lowest first ([W, H] is a
//	             2-D grid W routers wide)
//	hypercube    [d]: a binary d-cube of 2^d nodes
//	fattree      [arity, levels]: a k-ary n-tree, k^n processors under
//	             n levels of k^(n-1) switches
//	dragonfly    [routers, globals]: a*h+1 groups of a routers, one
//	             processor per router, h global links per router
//
// Every size and lane question derived from the shape (endpoint and node
// counts, the deadlock-free lane floor) is answered by the built Fabric.
type Config struct {
	Topology Kind  // mesh (default), torus, hypercube, fattree, or dragonfly
	Dims     []int // the fabric's shape, read per Topology (see above)
	Routing  RoutingAlgorithm

	FlitBytes   int          // bytes carried per flit
	HeaderFlits int          // flits of routing/header overhead per message
	CycleTime   sim.Duration // time for one flit to cross one link
	RouterDelay int          // extra cycles of routing decision per hop

	// VirtualChannels is the number of lanes multiplexed on each physical
	// link. 1 models plain wormhole (the paper's configuration). Values
	// above 1 reduce head-of-line blocking; each lane is modeled with full
	// link bandwidth, which is optimistic but preserves the qualitative
	// contention-reduction effect studied in [20].
	VirtualChannels int

	// LocalDelay is the latency charged to a message whose source and
	// destination coincide (it never enters the fabric).
	LocalDelay sim.Duration

	// MaxRetries bounds the retransmissions of a message whose worm is
	// killed by an injected fault (drop, transient outage, corruption).
	// Only consulted when a fault injector is installed. At most 65535, so
	// that a Delivery holds its retries in 16 bits; with RetryCap 0, also
	// small enough that RetryBase << MaxRetries does not overflow.
	MaxRetries int
	// RetryBase is the first retransmission backoff; attempt k waits
	// RetryBase << k, capped at RetryCap (capped exponential backoff, in
	// simulated time).
	RetryBase sim.Duration
	// RetryCap bounds the exponential backoff. 0 means uncapped.
	RetryCap sim.Duration
}

// DefaultConfig returns the configuration used throughout the reproduction
// for the given fabric: a 40 MHz wormhole network with 8-byte flits,
// single-cycle routers, and the fewest virtual channels the fabric's
// routing needs to stay deadlock-free (one on the paper's mesh). dims is
// copied.
func DefaultConfig(kind Kind, dims ...int) Config {
	cfg := Config{
		Topology:        kind,
		Dims:            append([]int(nil), dims...),
		FlitBytes:       8,
		HeaderFlits:     1,
		CycleTime:       25 * sim.Nanosecond, // 40 MHz
		RouterDelay:     1,
		VirtualChannels: 1,
		LocalDelay:      25 * sim.Nanosecond,
		MaxRetries:      8,
		RetryBase:       200 * sim.Nanosecond,
		RetryCap:        10 * sim.Microsecond,
	}
	if cfg.validateShape() == nil {
		cfg.VirtualChannels = cfg.Fabric().MinVirtualChannels()
	}
	return cfg
}

// DefaultGrid returns the reproduction's standard 2-D mesh shape for n
// processors: n×1 up to four processors, else four wide and ⌈n/4⌉ high.
func DefaultGrid(n int) []int {
	if n <= 4 {
		return []int{n, 1}
	}
	return []int{4, (n + 3) / 4}
}

// Fabric builds the Topology described by the configuration. It panics on
// an invalid configuration; call Validate first.
func (c Config) Fabric() Topology {
	switch c.Topology {
	case HypercubeTopology:
		return &hypercube{dimensions: c.Dims[0]}
	case FatTreeTopology:
		return newFatTree(c.Dims[0], c.Dims[1])
	case DragonflyTopology:
		return newDragonfly(c.Dims[0], c.Dims[1])
	default:
		return newKAryCube(c.Dims, c.Topology == TorusTopology)
	}
}

// MaxEndpoints is the most endpoints Validate accepts on any fabric, so
// that a Delivery can hold endpoints and hop counts in 32 bits (a fabric
// has at most 11 nodes per endpoint: a binary fat tree's 1 + levels/2).
const MaxEndpoints = 1 << 20

// validateShape checks Dims against the per-kind convention documented on
// Config, so that Fabric can build the topology, and caps the fabric at
// MaxEndpoints.
func (c Config) validateShape() error {
	d := c.Dims
	switch c.Topology {
	case HypercubeTopology:
		if len(d) != 1 {
			return fmt.Errorf("mesh: hypercube takes one dimension value, got %d", len(d))
		}
		if d[0] < 1 || d[0] > 20 {
			return fmt.Errorf("mesh: hypercube dimensions %d invalid", d[0])
		}
	case FatTreeTopology:
		if len(d) != 2 {
			return fmt.Errorf("mesh: fattree takes [arity, levels], got %d values", len(d))
		}
		if d[0] < 2 || d[1] < 1 {
			return fmt.Errorf("mesh: fat tree k=%d n=%d invalid (need arity >= 2, levels >= 1)", d[0], d[1])
		}
		for i, leaves := 0, 1; i < d[1]; i++ {
			if leaves *= d[0]; leaves > MaxEndpoints {
				return fmt.Errorf("mesh: fat tree k=%d n=%d exceeds 2^20 endpoints", d[0], d[1])
			}
		}
	case DragonflyTopology:
		if len(d) != 2 {
			return fmt.Errorf("mesh: dragonfly takes [routers, globals], got %d values", len(d))
		}
		if d[0] < 2 || d[1] < 1 {
			return fmt.Errorf("mesh: dragonfly a=%d h=%d invalid (need routers >= 2, globals >= 1)", d[0], d[1])
		}
		// With a and h capped first, a*(a*h+1) cannot overflow.
		if d[0] > MaxEndpoints || d[1] > MaxEndpoints || d[0]*(d[0]*d[1]+1) > MaxEndpoints {
			return fmt.Errorf("mesh: dragonfly a=%d h=%d exceeds 2^20 endpoints", d[0], d[1])
		}
	case MeshTopology, TorusTopology:
		if len(d) == 0 || len(d) > 8 {
			return fmt.Errorf("mesh: %d grid dimensions invalid (want 1 to 8)", len(d))
		}
		nodes := 1
		for _, k := range d {
			if k < 1 || (c.Topology == TorusTopology && k < 2) {
				return fmt.Errorf("mesh: grid dimension %d invalid for %s", k, c.Topology)
			}
			if k > MaxEndpoints/nodes {
				return fmt.Errorf("mesh: %s %v exceeds 2^20 endpoints", c.Topology, d)
			}
			nodes *= k
		}
	default:
		return fmt.Errorf("mesh: unknown topology %s", c.Topology)
	}
	return nil
}

// Validate reports whether the configuration is internally consistent. It
// also holds every fabric to MaxEndpoints and MaxRetries to 65535, the
// ranges a Delivery's narrow fields can hold, and an uncapped backoff to
// one whose summed wait over every retry fits a sim.Duration.
func (c Config) Validate() error {
	if err := c.validateShape(); err != nil {
		return err
	}
	switch {
	case c.FlitBytes < 1:
		return fmt.Errorf("mesh: flit size %d invalid", c.FlitBytes)
	case c.HeaderFlits < 0:
		return fmt.Errorf("mesh: header flits %d invalid", c.HeaderFlits)
	case c.CycleTime < 1:
		return fmt.Errorf("mesh: cycle time %d invalid", c.CycleTime)
	case c.RouterDelay < 0:
		return fmt.Errorf("mesh: router delay %d invalid", c.RouterDelay)
	case c.VirtualChannels < 1:
		return fmt.Errorf("mesh: virtual channels %d invalid", c.VirtualChannels)
	case c.MaxRetries < 0 || c.MaxRetries > math.MaxUint16:
		return fmt.Errorf("mesh: max retries %d invalid (want 0 to 65535)", c.MaxRetries)
	case c.RetryBase < 0 || c.RetryCap < 0:
		return fmt.Errorf("mesh: negative retry backoff")
	case c.RetryCap == 0 && c.RetryBase > math.MaxInt64>>c.MaxRetries:
		return fmt.Errorf("mesh: uncapped retry backoff %d << %d max retries overflows", c.RetryBase, c.MaxRetries)
	case c.Routing == RoutingWestFirst && (c.Topology != MeshTopology || len(c.Dims) != 2):
		return fmt.Errorf("mesh: west-first routing is defined for the 2-D mesh topology only")
	}
	if lanes := c.Fabric().MinVirtualChannels(); c.VirtualChannels < lanes {
		return fmt.Errorf("mesh: %s requires >= %d virtual channels for deadlock freedom", c.Topology, lanes)
	}
	return nil
}

// backoff returns the wait before retransmission attempt+1: RetryBase <<
// attempt, saturated at RetryCap, or at the largest duration when
// uncapped, so that it never wraps negative however many retries run.
func (c Config) backoff(attempt int) sim.Duration {
	limit := c.RetryCap
	if limit == 0 {
		limit = math.MaxInt64
	}
	if c.RetryBase > limit>>attempt {
		return limit
	}
	return c.RetryBase << attempt
}

// Flits returns the number of flits a message of the given byte length
// occupies, including header flits.
func (c Config) Flits(bytes int) int {
	payload := (bytes + c.FlitBytes - 1) / c.FlitBytes
	if payload < 1 {
		payload = 1
	}
	return payload + c.HeaderFlits
}
