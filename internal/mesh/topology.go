package mesh

// Topology is the pluggable interconnect seam: it describes the wiring
// (nodes and directed ports) and the deterministic routing function of one
// fabric. Network is the topology-agnostic wormhole engine on top.
//
// A Topology distinguishes *endpoints* (addressable processors, node ids
// 0..Endpoints()-1) from *nodes* (endpoints plus any internal switches, as
// in a fat tree). Route is only defined between endpoints; its result must
// be identical across calls (determinism is a repo-wide invariant) and must
// respect the fabric's channel-dependency discipline — dateline lane
// switching on tori, up/down phases on fat trees, minimal-path lane
// increments on dragonflies — so that wormhole routing stays deadlock-free
// with MinVirtualChannels lanes per link.
type Topology interface {
	// Name is the stable, human-readable config string of this fabric
	// instance (e.g. "torus4x4x4"). Equal fabrics render equal names.
	Name() string
	// Nodes is the total node count, endpoints plus internal switches.
	Nodes() int
	// Endpoints is the number of addressable processors. Endpoint ids are
	// 0..Endpoints()-1 and are always a prefix of the node id space.
	Endpoints() int
	// Degree is the number of outgoing ports of a node. Ports without a
	// neighbor (mesh boundary) report Neighbor == -1.
	Degree(node int) int
	// Neighbor is the node reached by the given outgoing port, or -1 when
	// the port is unwired.
	Neighbor(node, port int) int
	// Route appends to buf the deterministic path from one endpoint to
	// another as a sequence of (port, lane) steps, and returns the
	// extended slice. src != dst; both are endpoints.
	Route(buf []Step, src, dst int) []Step
	// MinVirtualChannels is the smallest lane count per link under which
	// Route's lane discipline is deadlock-free (1 when any lane works).
	MinVirtualChannels() int
}

// Step is one hop of a topology route: the outgoing port to take from the
// current node, and the virtual-channel lane class the worm must use on it
// (LaneAny when any free lane works).
type Step struct {
	Port int
	Lane int
}

// LaneAny, as a Step lane, requests whichever virtual channel frees first.
const LaneAny = anyLane

// Adaptive is implemented by topologies that also offer per-hop adaptive
// route selection. AdaptiveNext appends to buf the candidate outgoing
// ports from cur toward dst, in fixed preference order, and returns the
// extended slice; the engine picks the least loaded (ties resolved to the
// earliest candidate, keeping runs deterministic). Mandatory hops yield a
// single candidate, and no hop yields more than two, so a buffer of
// capacity two never grows.
type Adaptive interface {
	AdaptiveNext(buf []int, cur, dst int) []int
}
