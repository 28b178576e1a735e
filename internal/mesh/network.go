package mesh

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"commchar/internal/sim"
)

// Message is the unit of network traffic: the paper's
// (source, destination, length, injection time) record. It is what an
// injector hands the network; the Delivery logged for it copies its
// fields, endpoints narrowed to the 32 bits a valid Config bounds them to.
type Message struct {
	// ID numbers the message in injection order: Network.Inject sets it
	// to the message's injection slot + 1, whatever the caller put there.
	ID    int64
	Src   int
	Dst   int
	Bytes int
	// Inject is the absolute time the message is handed to the source's
	// network interface. It must not precede the simulator's current time.
	Inject sim.Time
}

// Delivery is the network log record produced for every message, from which
// all three communication attributes are characterized. It stores only
// what it cannot derive (the latency is a method), each field at the
// width a valid Config bounds it to: Config.Validate caps a fabric at 2^20
// endpoints, so endpoints and hops fit an int32, and MaxRetries at 65535,
// so retries fit a uint16. A Delivery is 56 bytes.
type Delivery struct {
	// The message's fields, as Network.Inject numbered it.
	ID       int64
	Src, Dst int32
	Bytes    int
	Inject   sim.Time

	End     sim.Time     // tail flit delivered at the destination (or give-up time)
	Blocked sim.Duration // time the head spent waiting on busy channels
	Hops    int32        // physical links traversed

	// Fault bookkeeping (all zero on fault-free runs).
	Retries uint16         // retransmission attempts before success/failure
	Faults  FaultFlags     // fault classes encountered
	Status  DeliveryStatus // delivered, or failed (partitioned/exhausted)
}

// Latency is the time from injection to End, as int64 arithmetic gives it.
func (d Delivery) Latency() sim.Duration { return sim.Duration(d.End - d.Inject) }

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
	t.Latency += int64(d.Latency())
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
// Topology.
//
// A network keeps the log unless DiscardLog is called. While a run goes,
// the log is not kept as Delivery values: each completed message is one
// compact record of varint deltas (logCodec; 12 to 18 bytes on the runs
// measured, against a Delivery's 56) in byte chunks that are never
// copied, and each record names its message's slot, the order Inject was
// called in. Log rebuilds the one full []Delivery from those records.
type Network struct {
	sim   *sim.Simulator
	cfg   Config
	topo  Topology
	links [][]*link // indexed [node][port], ports as numbered by the topology

	log      [][]byte // records in completion order, in chunks never copied
	logLen   int      // records in log
	logEnc   logCodec // the delta state after the last record
	slots    int      // injections so far: the next worm's slot
	noLog    bool     // DiscardLog was called: complete stores nothing
	totals   Totals
	inFlight int

	faults   Injector // nil on fault-free runs
	failures []error  // ErrPartitioned / ErrExhausted, in give-up order
	live     *worm    // injected but not yet completed, for diagnostics
	free     *worm    // finished worms, reused by Inject

	// interrupted is the live list as the first worm to see the run's
	// context ended found it (that worm included, so it is never empty
	// once taken), for diagnostics: the worms then drain as failures, so
	// by the time the run reports its cancellation the live list may be
	// empty. interruptedAt is when that worm saw it.
	interrupted   []Message
	interruptedAt sim.Time

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

// liveMessages returns the messages of the live worms.
func (n *Network) liveMessages() []Message {
	var msgs []Message
	for w := n.live; w != nil; w = w.nextLive {
		msgs = append(msgs, w.m)
	}
	return msgs
}

// noteInterrupt snapshots the live list the first time a worm sees the
// run's context ended.
func (n *Network) noteInterrupt() {
	if n.interrupted == nil {
		n.interrupted, n.interruptedAt = n.liveMessages(), n.sim.Now()
	}
}

// maxDiagnosticLines bounds each list in the network's diagnostic.
const maxDiagnosticLines = 20

// writeMessages sorts msgs by ID and lists them, one line each labelled
// what.
func writeMessages(b *strings.Builder, what string, msgs []Message) {
	slices.SortFunc(msgs, func(a, b Message) int { return cmp.Compare(a.ID, b.ID) })
	for i, m := range msgs {
		if i == maxDiagnosticLines {
			fmt.Fprintf(b, "\n  ... %d more %s messages", len(msgs)-maxDiagnosticLines, what)
			break
		}
		fmt.Fprintf(b, "\n  %s msg %d: %d->%d, %d bytes, injected t=%d", what, m.ID, m.Src, m.Dst, m.Bytes, m.Inject)
	}
}

// diagnostic dumps the network state for watchdog/deadlock reports:
// in-flight messages, those in flight when a worm first saw the run
// cancelled, and occupied or contended links.
func (n *Network) diagnostic() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  in-flight: %d messages, delivered: %d, failed: %d",
		n.inFlight, n.totals.Delivered, len(n.failures))
	writeMessages(&b, "pending", n.liveMessages())
	if n.interrupted != nil {
		fmt.Fprintf(&b, "\n  in flight at cancellation (t=%d): %d messages", n.interruptedAt, len(n.interrupted))
		writeMessages(&b, "interrupted", n.interrupted)
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
			if lines == maxDiagnosticLines {
				fmt.Fprintf(&b, "\n  ... more occupied links elided")
				return b.String()
			}
			lines++
			fmt.Fprintf(&b, "\n  link %d->%d: %d/%d lanes busy, %d queued", l.from, l.to, busy, len(l.lanes), len(l.queue))
		}
	}
	return b.String()
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

// Inject hands a message to the network and numbers it: m.ID becomes its
// injection slot + 1, so the first message injected is 1. done, if
// non-nil, is invoked (in kernel context) when the tail flit reaches the
// destination. Inject may be called before the simulator runs or at any
// point during the run, as long as m.Inject is not in the simulated past.
// Traffic generators call it once per message inside the cycle loop. The
// message travels as a worm, a state machine on calendar callbacks, not as
// a process: no goroutine is created per message. On a warm network a
// message allocates nothing, bar one detour path per reroute and one
// error per failure; TestWarmWormAllocFree pins that for every fabric and
// fault class.
func (n *Network) Inject(m Message, done func(Delivery)) {
	m.ID = int64(n.slots) + 1
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
	n.slots++
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

// Delivery log chunks start at minLogChunk bytes and double with the log
// up to maxLogChunk. A record never straddles two chunks, so a chunk with
// less than maxRecordLen bytes free is closed, and a large log grows
// without copying a record.
const (
	minLogChunk  = 4 << 10
	maxLogChunk  = 256 << 10
	maxRecordLen = 9 * binary.MaxVarintLen64
)

// complete records a finished message and runs its done callback.
func (n *Network) complete(d Delivery, done func(Delivery)) {
	d.End = n.sim.Now()
	n.totals.Add(d)
	if !n.noLog {
		n.record(&d)
	}
	n.inFlight--
	if done != nil {
		done(d)
	}
}

// record appends d's log record.
func (n *Network) record(d *Delivery) {
	k := len(n.log)
	if k == 0 || cap(n.log[k-1])-len(n.log[k-1]) < maxRecordLen {
		size := minLogChunk
		if k > 0 {
			size = min(2*cap(n.log[k-1]), maxLogChunk)
		}
		n.log = append(n.log, make([]byte, 0, size))
		k++
	}
	n.log[k-1] = n.logEnc.put(n.log[k-1], d)
	n.logLen++
}

// logCodec is the delta state of the delivery log's records: the slot
// and injection time of the last record written or read. A message's slot
// is its ID - 1 (Inject numbers every message), so a record stores the
// slot and not the ID. A record is nine varints:
//
//	slot - the last record's slot                 zigzag
//	Src, Dst, Bytes                               uvarint
//	Inject - the last record's Inject             zigzag
//	End - Inject, Blocked, Hops                   uvarint
//	Retries<<7 | Faults<<1 | Status               uvarint
//
// Differences wrap as int64 arithmetic does, and a negative field takes
// ten bytes as a uvarint, so every value round-trips. Messages complete
// near injection order, so most fields take one byte.
type logCodec struct {
	slot   int
	inject sim.Time
}

// put appends d's record to buf.
func (c *logCodec) put(buf []byte, d *Delivery) []byte {
	if d.Faults >= 1<<6 || d.Status > 1 {
		panic(fmt.Sprintf("mesh: message %d has faults %d, status %d", d.ID, d.Faults, d.Status))
	}
	slot := int(d.ID - 1)
	buf = binary.AppendUvarint(buf, zigzag(int64(slot-c.slot)))
	buf = binary.AppendUvarint(buf, uint64(d.Src))
	buf = binary.AppendUvarint(buf, uint64(d.Dst))
	buf = binary.AppendUvarint(buf, uint64(d.Bytes))
	buf = binary.AppendUvarint(buf, zigzag(int64(d.Inject-c.inject)))
	buf = binary.AppendUvarint(buf, uint64(d.End-d.Inject))
	buf = binary.AppendUvarint(buf, uint64(d.Blocked))
	buf = binary.AppendUvarint(buf, uint64(d.Hops))
	buf = binary.AppendUvarint(buf, uint64(d.Retries)<<7|uint64(d.Faults)<<1|uint64(d.Status))
	c.slot, c.inject = slot, d.Inject
	return buf
}

// nextSlot reads the slot of the record at the head of buf; get then
// reads the rest of that record into d.
func (c *logCodec) nextSlot(buf []byte) (int, []byte) {
	u, buf := uvarint(buf)
	c.slot += int(unzigzag(u))
	return c.slot, buf
}

// get reads the rest of the record whose slot nextSlot just read into d,
// and returns what follows it.
func (c *logCodec) get(buf []byte, d *Delivery) []byte {
	d.ID = int64(c.slot) + 1
	u, buf := uvarint(buf)
	d.Src = int32(u)
	u, buf = uvarint(buf)
	d.Dst = int32(u)
	u, buf = uvarint(buf)
	d.Bytes = int(u)
	u, buf = uvarint(buf)
	c.inject += sim.Time(unzigzag(u))
	d.Inject = c.inject
	u, buf = uvarint(buf)
	d.End = d.Inject + sim.Time(u)
	u, buf = uvarint(buf)
	d.Blocked = sim.Duration(u)
	u, buf = uvarint(buf)
	d.Hops = int32(u)
	u, buf = uvarint(buf)
	d.Retries, d.Faults, d.Status = uint16(u>>7), FaultFlags(u>>1&(1<<6-1)), DeliveryStatus(u&1)
	return buf
}

func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint reads one uvarint from the head of buf, a log record's field.
func uvarint(buf []byte) (uint64, []byte) {
	if b := buf[0]; b < 0x80 {
		return uint64(b), buf[1:]
	}
	u, k := binary.Uvarint(buf)
	return u, buf[k:]
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

// Log returns the deliveries completed so far, sorted by injection time,
// ties broken by message ID. The returned slice is the caller's: Log
// builds it at its final length and decodes each record straight into its
// slot's place. When every message is injected at the simulator's current
// time, injection order is the sorted order and nothing is sorted;
// otherwise Log sorts the slice once.
// It panics on a network told to keep no log (DiscardLog).
func (n *Network) Log() []Delivery {
	if n.noLog {
		panic("mesh: Log called on a network that keeps no delivery log (DiscardLog)")
	}
	out := make([]Delivery, n.logLen)
	// A live worm holds a slot but has no record yet, so a record's place
	// is its slot less the live slots below it.
	var live []int
	for w := n.live; w != nil; w = w.nextLive {
		live = append(live, int(w.m.ID-1))
	}
	slices.Sort(live)
	var dec logCodec
	for _, chunk := range n.log {
		for len(chunk) > 0 {
			var slot int
			slot, chunk = dec.nextSlot(chunk)
			below, _ := slices.BinarySearch(live, slot)
			chunk = dec.get(chunk, &out[slot-below])
		}
	}
	for i := 1; i < len(out); i++ {
		if logBefore(&out[i], &out[i-1]) {
			sort.Slice(out, func(i, j int) bool { return logBefore(&out[i], &out[j]) })
			break
		}
	}
	return out
}

// logBefore is Log's order: by injection time, then message ID.
func logBefore(a, b *Delivery) bool {
	return a.Inject < b.Inject || a.Inject == b.Inject && a.ID < b.ID
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
