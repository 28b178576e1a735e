package mesh

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"commchar/internal/sim"
)

// Message is the unit of network traffic: the paper's
// (source, destination, length, injection time) record.
type Message struct {
	ID    int64
	Src   int
	Dst   int
	Bytes int
	// Inject is the absolute time the message is handed to the source's
	// network interface. It must not precede the simulator's current time.
	Inject sim.Time
}

// Delivery is the network log record produced for every message, from which
// all three communication attributes are characterized.
type Delivery struct {
	Message
	End     sim.Time     // tail flit delivered at the destination (or give-up time)
	Latency sim.Duration // End - Inject
	Blocked sim.Duration // time the head spent waiting on busy channels
	Hops    int          // physical links traversed

	// Fault bookkeeping (all zero on fault-free runs).
	Retries int            // retransmission attempts before success/failure
	Faults  FaultFlags     // fault classes encountered
	Status  DeliveryStatus // delivered, or failed (partitioned/exhausted)
}

// Totals is a running summary of completed messages: how many the
// network delivered and gave up on, and the sums over delivered messages
// of latency, blocked time and hops. The sums are integers, so they are
// exact and do not depend on the order messages complete in.
type Totals struct {
	Delivered int64
	Failed    int64
	Latency   int64 // ns
	Blocked   int64 // ns
	Hops      int64
}

// Add counts one completed message.
func (t *Totals) Add(d Delivery) {
	if d.Status != StatusDelivered {
		t.Failed++
		return
	}
	t.Delivered++
	t.Latency += int64(d.Latency)
	t.Blocked += int64(d.Blocked)
	t.Hops += int64(d.Hops)
}

// hop is one step of a precomputed route: which link, and on which lane
// class (torus dateline discipline) the worm must travel.
type hop struct {
	link *link
	lane int
}

// Network is the topology-agnostic wormhole engine: it owns the links,
// lane arbitration, fault handling, the delivery log and the running
// totals, and delegates wiring and path selection to the configured
// Topology. A network keeps the log unless DiscardLog is called.
type Network struct {
	sim    *sim.Simulator
	cfg    Config
	topo   Topology
	links  [][]*link // indexed [node][port], ports as numbered by the topology
	nextID int64

	log      [][]Delivery // completion order, in chunks never copied once full
	logLen   int
	noLog    bool // DiscardLog was called: complete stores nothing
	totals   Totals
	inFlight int

	faults   Injector // nil on fault-free runs
	failures []error  // ErrPartitioned / ErrExhausted, in give-up order
	live     *worm    // injected but not yet completed, for diagnostics
	free     *worm    // finished worms, reused by Inject

	// routeCache memoizes the fault-free path per (src, dst): the fabric
	// is immutable after New, so each pair is materialized exactly once
	// and the steady-state routing step stays allocation-free. Fault
	// detours (routeAvoiding) are time-dependent and never cached.
	routeCache map[[2]int][]hop

	// Per-hop scratch, reused so that routing allocates nothing but the
	// detour path a rerouted worm keeps: west-first's candidate ports,
	// and routeAvoiding's breadth-first search state. steps is the
	// topology route computeRoute turns into the cached path.
	steps      []Step
	candidates [2]int
	bfsPrev    []*link // link the search reached each node by
	bfsSeen    []bool
	bfsQueue   []int
}

// New builds the network on the given simulator. It panics on an invalid
// configuration: network construction errors are programming errors in this
// codebase, not runtime conditions.
func New(s *sim.Simulator, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{sim: s, cfg: cfg, topo: cfg.Fabric(), routeCache: map[[2]int][]hop{}}
	s.AddDiagnostic("mesh", n.diagnostic)
	n.links = make([][]*link, n.topo.Nodes())
	id := 0
	for node := range n.links {
		ports := make([]*link, n.topo.Degree(node))
		for port := range ports {
			to := n.topo.Neighbor(node, port)
			if to < 0 {
				continue // unwired port (mesh boundary)
			}
			ports[port] = &link{
				id:    id,
				from:  node,
				to:    to,
				lanes: make([]laneState, cfg.VirtualChannels),
			}
			id++
		}
		n.links[node] = ports
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Topology returns the fabric the network was built on.
func (n *Network) Topology() Topology { return n.topo }

// SetFaults installs a fault injector consulted on every hop and delivery.
// Pass nil to disable injection. Must be set before the run starts.
func (n *Network) SetFaults(inj Injector) { n.faults = inj }

// Failures returns the structured errors (*ErrPartitioned, *ErrExhausted)
// for every message the network gave up on, in give-up order.
func (n *Network) Failures() []error {
	out := make([]error, len(n.failures))
	copy(out, n.failures)
	return out
}

// diagnostic dumps the network state for watchdog/deadlock reports:
// in-flight messages and occupied or contended links.
func (n *Network) diagnostic() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  in-flight: %d messages, delivered: %d, failed: %d",
		n.inFlight, n.totals.Delivered, len(n.failures))
	var pending []Message
	for w := n.live; w != nil; w = w.nextLive {
		pending = append(pending, w.m)
	}
	// By ID; IDs a caller assigned may repeat, so the other fields break ties.
	slices.SortFunc(pending, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Inject, b.Inject),
			cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Bytes, b.Bytes))
	})
	const maxLines = 20
	for i, m := range pending {
		if i == maxLines {
			fmt.Fprintf(&b, "\n  ... %d more pending messages", len(pending)-maxLines)
			break
		}
		fmt.Fprintf(&b, "\n  pending msg %d: %d->%d, %d bytes, injected t=%d", m.ID, m.Src, m.Dst, m.Bytes, m.Inject)
	}
	lines := 0
	for _, ports := range n.links {
		for _, l := range ports {
			if l == nil {
				continue
			}
			busy := 0
			for _, lane := range l.lanes {
				if lane.busy {
					busy++
				}
			}
			if busy == 0 && len(l.queue) == 0 {
				continue
			}
			if lines == maxLines {
				fmt.Fprintf(&b, "\n  ... more occupied links elided")
				return b.String()
			}
			lines++
			fmt.Fprintf(&b, "\n  link %d->%d: %d/%d lanes busy, %d queued", l.from, l.to, busy, len(l.lanes), len(l.queue))
		}
	}
	return b.String()
}

// NextID allocates a fresh message ID. Callers may also assign their own.
func (n *Network) NextID() int64 {
	n.nextID++
	return n.nextID
}

// route returns the topology's deterministic path from src to dst,
// memoized per (src, dst). It is the per-message routing step of the
// wormhole engine and must stay allocation-free in the steady state,
// which the cache provides: each pair's path is materialized once and
// returned by reference afterwards (TestWarmWormAllocFree pins this for
// every fabric). Callers must treat the returned slice as read-only
// (startAttempt and Path already do — detours replace the slice, never
// elements).
func (n *Network) route(src, dst int) []hop {
	key := [2]int{src, dst}
	if path, ok := n.routeCache[key]; ok {
		return path
	}
	path := n.computeRoute(src, dst)
	n.routeCache[key] = path
	return path
}

// computeRoute materializes the topology's deterministic path from src
// to dst: links to traverse, with the topology's lane discipline
// attached (torus datelines, fat-tree up/down, dragonfly minimal-path
// lane increment). The returned path is its one allocation
// (TestComputeRouteAllocatesOnce).
func (n *Network) computeRoute(src, dst int) []hop {
	n.steps = n.topo.Route(n.steps[:0], src, dst)
	path := make([]hop, len(n.steps))
	cur := src
	for i, s := range n.steps {
		l := n.links[cur][s.Port]
		if l == nil {
			panic(fmt.Sprintf("mesh: no port %d link at node %d", s.Port, cur))
		}
		path[i] = hop{link: l, lane: s.Lane}
		cur = l.to
	}
	if cur != dst {
		panic(fmt.Sprintf("mesh: route %d->%d ended at %d", src, dst, cur))
	}
	return path
}

// Hops returns the deterministic route length in physical links between
// two endpoints.
func (n *Network) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return len(n.route(src, dst))
}

// Path returns the dimension-order route between two nodes as (from, to)
// link endpoints, for analytical models that need per-link flow rates.
func (n *Network) Path(src, dst int) [][2]int {
	if src == dst {
		return nil
	}
	path := n.route(src, dst)
	out := make([][2]int, len(path))
	for i, h := range path {
		out[i] = [2]int{h.link.from, h.link.to}
	}
	return out
}

// Inject hands a message to the network. done, if non-nil, is invoked (in
// kernel context) when the tail flit reaches the destination. Inject may be
// called before the simulator runs or at any point during the run, as long
// as m.Inject is not in the simulated past. Traffic generators call it once
// per message inside the cycle loop. The message travels as a worm, a
// state machine on calendar callbacks, not as a process: no goroutine is
// created per message. On a warm network a message allocates nothing,
// bar one detour path per reroute and one error per failure;
// TestWarmWormAllocFree pins that for every fabric and fault class.
func (n *Network) Inject(m Message, done func(Delivery)) {
	if eps := n.topo.Endpoints(); m.Src < 0 || m.Src >= eps || m.Dst < 0 || m.Dst >= eps {
		panic(fmt.Sprintf("mesh: message %d has endpoints %d->%d outside %d-node fabric",
			m.ID, m.Src, m.Dst, eps))
	}
	if m.Bytes <= 0 {
		panic(fmt.Sprintf("mesh: message %d has length %d", m.ID, m.Bytes))
	}
	if m.Inject < n.sim.Now() {
		panic(fmt.Sprintf("mesh: message %d injected at %d, before now %d", m.ID, m.Inject, n.sim.Now()))
	}
	n.inFlight++
	w := n.newWorm(m, done)
	w.nextLive = n.live
	if n.live != nil {
		n.live.prevLive = w
	}
	n.live = w
	n.sim.At(m.Inject, w.fire)
}

// pathBroken reports whether any link on the path is permanently down.
func (n *Network) pathBroken(path []hop, now sim.Time) bool {
	for _, h := range path {
		f := n.faults.LinkFault(h.link.from, h.link.to, now)
		if f.Down && f.Permanent {
			return true
		}
	}
	return false
}

// routeAvoiding computes a deterministic shortest detour from src to dst
// over links that are not permanently down at time now: breadth-first
// search expanding ports in fixed order, so equal-seed runs reroute
// identically. It returns nil when the failures disconnect src from dst.
// Detour hops use whichever virtual channel frees first.
func (n *Network) routeAvoiding(src, dst int, now sim.Time) []hop {
	if src == dst {
		return nil
	}
	if n.bfsPrev == nil {
		n.bfsPrev = make([]*link, n.topo.Nodes())
		n.bfsSeen = make([]bool, n.topo.Nodes())
	}
	prev, seen := n.bfsPrev, n.bfsSeen
	clear(seen)
	seen[src] = true
	queue := append(n.bfsQueue[:0], src)
	for head := 0; head < len(queue) && !seen[dst]; head++ {
		for _, l := range n.links[queue[head]] {
			if l == nil || seen[l.to] {
				continue
			}
			f := n.faults.LinkFault(l.from, l.to, now)
			if f.Down && f.Permanent {
				continue
			}
			seen[l.to] = true
			prev[l.to] = l
			queue = append(queue, l.to)
		}
	}
	n.bfsQueue = queue
	if !seen[dst] {
		return nil
	}
	hops := 0
	for at := dst; at != src; at = prev[at].from {
		hops++
	}
	// The worm keeps the detour, so it is the one allocation here.
	path := make([]hop, hops)
	for at := dst; at != src; at = prev[at].from {
		hops--
		path[hops] = hop{link: prev[at], lane: anyLane}
	}
	return path
}

// chooseWestFirst returns the next link under adaptive routing: the
// topology names the candidate ports in preference order (west-first's
// mandatory westward hops return a single candidate) and the engine picks
// the least loaded, ties resolved to the earliest candidate so equal-seed
// runs stay byte-identical.
func (n *Network) chooseWestFirst(cur, dst int) *link {
	ports := n.links[cur]
	candidates := n.topo.(Adaptive).AdaptiveNext(n.candidates[:0], cur, dst)
	best := ports[candidates[0]]
	for _, p := range candidates[1:] {
		if l := ports[p]; l.load() < best.load() {
			best = l
		}
	}
	return best
}

// Delivery log chunks start at minLogChunk entries and double with the log
// up to maxLogChunk, so small runs stay small and a large log grows without
// ever copying a recorded delivery.
const (
	minLogChunk = 256
	maxLogChunk = 1 << 15
)

// complete records a finished message and runs its done callback.
func (n *Network) complete(d Delivery, done func(Delivery)) {
	d.End = n.sim.Now()
	d.Latency = sim.Duration(d.End - d.Inject)
	n.totals.Add(d)
	if !n.noLog {
		if k := len(n.log); k == 0 || len(n.log[k-1]) == cap(n.log[k-1]) {
			n.log = append(n.log, make([]Delivery, 0, min(max(n.logLen, minLogChunk), maxLogChunk)))
		}
		last := &n.log[len(n.log)-1]
		*last = append(*last, d)
		n.logLen++
	}
	n.inFlight--
	if done != nil {
		done(d)
	}
}

// InFlight reports the number of injected but undelivered messages.
func (n *Network) InFlight() int { return n.inFlight }

// Delivered reports the number of completed messages.
func (n *Network) Delivered() int64 { return n.totals.Delivered }

// Totals returns the running totals of the messages completed so far.
// They are kept whether or not the network keeps its log.
func (n *Network) Totals() Totals { return n.totals }

// DiscardLog tells the network that nobody will read its delivery log,
// so it stores no delivery and its memory does not grow with the number
// of messages; Totals still counts every one. It must be called before
// the first Inject, and Log panics afterwards.
func (n *Network) DiscardLog() {
	if n.inFlight > 0 || n.totals.Delivered+n.totals.Failed > 0 {
		panic("mesh: DiscardLog called after the first Inject")
	}
	n.noLog = true
}

// Log returns the deliveries recorded so far, sorted by injection time
// (ties broken by message ID). The returned slice is a copy. It panics on
// a network told to keep no log (DiscardLog).
func (n *Network) Log() []Delivery {
	if n.noLog {
		panic("mesh: Log called on a network that keeps no delivery log (DiscardLog)")
	}
	out := make([]Delivery, 0, n.logLen)
	for _, chunk := range n.log {
		out = append(out, chunk...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Inject != out[j].Inject {
			return out[i].Inject < out[j].Inject
		}
		return out[i].Message.ID < out[j].Message.ID
	})
	return out
}

// LinkStats returns utilization records for every physical link, ordered by
// (from, to). Elapsed time is the simulator's current clock.
func (n *Network) LinkStats() []LinkStat {
	elapsed := n.sim.Now()
	var out []LinkStat
	for _, ports := range n.links {
		for _, l := range ports {
			if l == nil {
				continue
			}
			busy := l.busyLaneTime
			for _, lane := range l.lanes {
				if lane.busy {
					busy += sim.Duration(elapsed - lane.busySince)
				}
			}
			u := 0.0
			if elapsed > 0 {
				u = float64(busy) / (float64(elapsed) * float64(len(l.lanes)))
			}
			out = append(out, LinkStat{From: l.from, To: l.to, Grants: l.grants, Flits: l.flits, Utilization: u})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// MeanUtilization returns the average utilization across all links.
func (n *Network) MeanUtilization() float64 {
	stats := n.LinkStats()
	if len(stats) == 0 {
		return 0
	}
	var sum float64
	for _, s := range stats {
		sum += s.Utilization
	}
	return sum / float64(len(stats))
}
