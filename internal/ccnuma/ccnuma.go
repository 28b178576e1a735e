// Package ccnuma simulates the shared-memory machine of the paper's dynamic
// strategy: a CC-NUMA multiprocessor with private caches kept coherent by a
// full-map directory invalidation protocol under sequential consistency
// (the configuration the paper states it simulated with SPASM [8]).
//
// Every cache miss, upgrade, invalidation, acknowledgement and writeback
// becomes a real message through the 2-D mesh simulator, with the issuing
// processor blocked until its transaction completes — the execution-driven
// feedback loop between application and network that distinguishes the
// dynamic strategy from trace replay.
package ccnuma

import (
	"fmt"
	"sort"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// LineState is the MSI/MESI state of a cache line.
type LineState int

const (
	// Invalid: the line holds no data.
	Invalid LineState = iota
	// Shared: a clean copy, readable only.
	Shared
	// Exclusive: the only copy, clean, readable; a write upgrades it to
	// Modified silently (MESI protocol only).
	Exclusive
	// Modified: the only copy, dirty, readable and writable.
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("LineState(%d)", int(s))
	}
}

// Protocol selects the coherence protocol variant.
type Protocol int

const (
	// MSI is the paper's three-state invalidation protocol.
	MSI Protocol = iota
	// MESI adds the Exclusive state: an uncached block read-missed by one
	// processor is granted exclusively, so a subsequent write needs no
	// upgrade traffic, and clean-exclusive fetches carry no writeback
	// data. Evicting an Exclusive line sends a replacement hint so the
	// directory stays exact.
	MESI
)

func (pr Protocol) String() string {
	switch pr {
	case MSI:
		return "MSI"
	case MESI:
		return "MESI"
	default:
		return fmt.Sprintf("Protocol(%d)", int(pr))
	}
}

// Config describes the memory system.
type Config struct {
	Processors    int
	CacheBytes    int // private cache capacity
	LineBytes     int // coherence unit
	Associativity int // ways per set; 1 (direct-mapped) if zero
	Protocol      Protocol

	HitTime       sim.Duration // cache hit
	DirectoryTime sim.Duration // directory/memory access at the home node

	ControlBytes int // length of request/invalidate/ack messages
	// Data messages carry ControlBytes + LineBytes.
}

// DefaultConfig is the reproduction's machine: 64 KiB direct-mapped caches
// with 32-byte lines, 10 ns hits, 100 ns directory/memory occupancy, 8-byte
// control messages.
func DefaultConfig(processors int) Config {
	return Config{
		Processors:    processors,
		CacheBytes:    64 << 10,
		LineBytes:     32,
		HitTime:       10 * sim.Nanosecond,
		DirectoryTime: 100 * sim.Nanosecond,
		ControlBytes:  8,
	}
}

// ways returns the effective associativity.
func (c Config) ways() int {
	if c.Associativity < 1 {
		return 1
	}
	return c.Associativity
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("ccnuma: %d processors", c.Processors)
	case c.LineBytes < 1 || c.CacheBytes < c.LineBytes:
		return fmt.Errorf("ccnuma: cache %dB / line %dB invalid", c.CacheBytes, c.LineBytes)
	case c.CacheBytes%(c.LineBytes*c.ways()) != 0:
		return fmt.Errorf("ccnuma: cache %dB not a multiple of %d-way set size (%dB lines)",
			c.CacheBytes, c.ways(), c.LineBytes)
	case c.ControlBytes < 1:
		return fmt.Errorf("ccnuma: control message %dB", c.ControlBytes)
	case c.HitTime < 0 || c.DirectoryTime < 0:
		return fmt.Errorf("ccnuma: negative latency")
	}
	return nil
}

// DataBytes is the length of a data-carrying message.
func (c Config) DataBytes() int { return c.ControlBytes + c.LineBytes }

// Stats counts memory-system activity.
type Stats struct {
	Reads, Writes        int64
	ReadHits, WriteHits  int64
	ReadMisses           int64
	WriteMisses          int64
	Upgrades             int64
	Invalidations        int64
	Writebacks           int64
	Evictions            int64
	OwnerFetches         int64
	ControlMsgs, DataMsg int64

	// MESI-specific counters.
	ExclusiveGrants  int64 // read misses granted Exclusive
	SilentUpgrades   int64 // E->M transitions without traffic
	ReplacementHints int64 // control messages clearing Exclusive owners
}

// line is one cache frame.
type line struct {
	tag     uint64
	state   LineState
	lastUse int64 // LRU counter
}

// cache is one processor's private set-associative cache with LRU
// replacement (direct-mapped when the associativity is one).
type cache struct {
	sets  int
	assoc int
	lines []line // set s occupies lines[s*assoc : (s+1)*assoc]
	tick  int64
}

func newCache(cfg Config) *cache {
	sets := cfg.CacheBytes / (cfg.LineBytes * cfg.ways())
	return &cache{sets: sets, assoc: cfg.ways(), lines: make([]line, sets*cfg.ways())}
}

// setOf returns the frames of the set the block maps to.
func (c *cache) setOf(block uint64) []line {
	s := int(block % uint64(c.sets))
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

// lookup finds the block's frame, touching its LRU stamp on a hit.
func (c *cache) lookup(block uint64) (*line, bool) {
	set := c.setOf(block)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == block {
			c.tick++
			set[i].lastUse = c.tick
			return &set[i], true
		}
	}
	return nil, false
}

// victim returns the frame to fill for the block: an invalid frame if one
// exists, otherwise the least-recently-used frame in the set.
func (c *cache) victim(block uint64) *line {
	set := c.setOf(block)
	var v *line
	for i := range set {
		if set[i].state == Invalid {
			return &set[i]
		}
		if v == nil || set[i].lastUse < v.lastUse {
			v = &set[i]
		}
	}
	return v
}

// touch stamps a frame most-recently-used (after a fill).
func (c *cache) touch(l *line) {
	c.tick++
	l.lastUse = c.tick
}

// dirEntry is the full-map directory state of one block. The home node is
// implied by the block address.
type dirEntry struct {
	owner   int // processor holding the line Modified, or -1
	sharers map[int]bool
}

// System is the coherent memory system bound to a mesh network.
type System struct {
	sim *sim.Simulator
	net *mesh.Network
	cfg Config

	caches []*cache
	dir    map[uint64]*dirEntry
	locks  map[uint64]*sim.Facility // per-block transaction serialization
	// waiters holds each requesting process's reusable completion state.
	waiters map[*sim.Process]*waiter

	nextAlloc uint64
	stats     Stats
}

// New builds the memory system. The network must have at least
// cfg.Processors nodes; processor i sits on mesh node i.
func New(s *sim.Simulator, net *mesh.Network, cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if ep := net.Topology().Endpoints(); ep < cfg.Processors {
		panic(fmt.Sprintf("ccnuma: %d processors on %d-node mesh", cfg.Processors, ep))
	}
	sys := &System{
		sim:     s,
		net:     net,
		cfg:     cfg,
		dir:     map[uint64]*dirEntry{},
		locks:   map[uint64]*sim.Facility{},
		waiters: map[*sim.Process]*waiter{},
		// Leave address 0 unused so a zero address is always a bug.
		nextAlloc: uint64(cfg.LineBytes),
	}
	for i := 0; i < cfg.Processors; i++ {
		sys.caches = append(sys.caches, newCache(cfg))
	}
	return sys
}

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats { return s.stats }

// Alloc reserves size bytes of shared address space, aligned to a line
// boundary, and returns the base address. Blocks are interleaved across
// home nodes by address, so consecutive lines live on consecutive homes.
func (s *System) Alloc(size int) uint64 {
	if size <= 0 {
		panic(fmt.Sprintf("ccnuma: Alloc(%d)", size))
	}
	base := s.nextAlloc
	lines := (uint64(size) + uint64(s.cfg.LineBytes) - 1) / uint64(s.cfg.LineBytes)
	s.nextAlloc += lines * uint64(s.cfg.LineBytes)
	return base
}

// Home returns the home node of an address (block-interleaved).
func (s *System) Home(addr uint64) int {
	return int((addr / uint64(s.cfg.LineBytes)) % uint64(s.cfg.Processors))
}

func (s *System) block(addr uint64) uint64 { return addr / uint64(s.cfg.LineBytes) }

func (s *System) entry(block uint64) *dirEntry {
	e, ok := s.dir[block]
	if !ok {
		e = &dirEntry{owner: -1, sharers: map[int]bool{}}
		s.dir[block] = e
	}
	return e
}

func (s *System) blockLock(block uint64) *sim.Facility {
	f, ok := s.locks[block]
	if !ok {
		f = sim.NewFacility(fmt.Sprintf("dir-block-%d", block))
		s.locks[block] = f
	}
	return f
}

// send injects a protocol message and blocks p until the tail arrives.
func (s *System) send(p *sim.Process, src, dst, bytes int) {
	if bytes == s.cfg.DataBytes() {
		s.stats.DataMsg++
	} else {
		s.stats.ControlMsgs++
	}
	if src == dst {
		// Local: never enters the network but still costs the NI time.
		p.Hold(s.net.Config().LocalDelay)
		return
	}
	w := s.waiterFor(p)
	w.done = false
	s.net.Inject(mesh.Message{
		ID: s.net.NextID(), Src: src, Dst: dst, Bytes: bytes, Inject: p.Now(),
	}, w.deliveredFn)
	for !w.done {
		p.Suspend()
	}
}

// waiter is a process's completion state for its outstanding protocol
// message. send blocks the process until the tail arrives, so a process
// has at most one message outstanding, and its delivery callback is bound
// once rather than allocated per message.
type waiter struct {
	done        bool
	wake        sim.Waker
	deliveredFn func(mesh.Delivery)
}

func (w *waiter) delivered(mesh.Delivery) {
	w.done = true
	w.wake.Wake()
}

func (s *System) waiterFor(p *sim.Process) *waiter {
	w, ok := s.waiters[p]
	if !ok {
		w = &waiter{wake: sim.WakerFor(p)}
		w.deliveredFn = w.delivered
		s.waiters[p] = w
	}
	return w
}

// Read performs a shared-memory load by processor proc at addr, advancing
// p's clock by the full (possibly remote) access time.
func (s *System) Read(p *sim.Process, proc int, addr uint64) {
	s.access(p, proc, addr, false)
}

// Write performs a shared-memory store.
func (s *System) Write(p *sim.Process, proc int, addr uint64) {
	s.access(p, proc, addr, true)
}

func (s *System) access(p *sim.Process, proc int, addr uint64, write bool) {
	if proc < 0 || proc >= s.cfg.Processors {
		panic(fmt.Sprintf("ccnuma: processor %d out of range", proc))
	}
	if addr == 0 || addr >= s.nextAlloc {
		panic(fmt.Sprintf("ccnuma: access to unallocated address %#x", addr))
	}
	if write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}
	c := s.caches[proc]
	block := s.block(addr)

	// Fast path: hit under sequential consistency.
	if l, ok := c.lookup(block); ok {
		if !write {
			s.stats.ReadHits++
			p.Hold(s.cfg.HitTime)
			return
		}
		if l.state == Modified {
			s.stats.WriteHits++
			p.Hold(s.cfg.HitTime)
			return
		}
		if l.state == Exclusive {
			// MESI: the silent E->M upgrade, the protocol's whole point.
			l.state = Modified
			s.stats.WriteHits++
			s.stats.SilentUpgrades++
			p.Hold(s.cfg.HitTime)
			return
		}
		// Shared: fall through to the upgrade transaction.
	}
	p.Hold(s.cfg.HitTime) // the detecting lookup itself

	// Conflict eviction of the victim frame, as its own transaction.
	victim := c.victim(block)
	if victim.state != Invalid && victim.tag != block {
		s.evict(p, proc, victim)
	}

	s.miss(p, proc, block, write)
}

// evict writes back (if dirty) and drops the victim line. It serializes on
// the victim's block lock so directory state stays consistent; S-state
// drops are silent (no replacement hint), leaving a stale sharer that a
// later invalidation will clean up.
func (s *System) evict(p *sim.Process, proc int, victim *line) {
	block := victim.tag
	lock := s.blockLock(block)
	lock.Reserve(p)
	defer lock.Release(p)

	// Re-check under the lock: an invalidation may have raced us here.
	if victim.state == Invalid || victim.tag != block {
		return
	}
	s.stats.Evictions++
	switch victim.state {
	case Modified:
		home := int(block % uint64(s.cfg.Processors))
		s.stats.Writebacks++
		s.send(p, proc, home, s.cfg.DataBytes()) // writeback data
		p.Hold(s.cfg.DirectoryTime)              // memory update at home
		e := s.entry(block)
		e.owner = -1
	case Exclusive:
		// Clean: no data moves, but the directory must learn the owner
		// is gone (replacement hint).
		home := int(block % uint64(s.cfg.Processors))
		s.stats.ReplacementHints++
		s.send(p, proc, home, s.cfg.ControlBytes)
		p.Hold(s.cfg.DirectoryTime)
		e := s.entry(block)
		e.owner = -1
	default:
		e := s.entry(block)
		delete(e.sharers, proc)
	}
	victim.state = Invalid
}

// miss runs the full coherence transaction for a read miss, write miss, or
// write upgrade, holding the block's transaction lock throughout.
func (s *System) miss(p *sim.Process, proc int, block uint64, write bool) {
	lock := s.blockLock(block)
	lock.Reserve(p)
	defer lock.Release(p)

	c := s.caches[proc]
	// Re-evaluate under the lock: while waiting, an invalidation may have
	// taken our Shared copy, or nothing may have changed.
	l, present := c.lookup(block)
	hasShared := present && l.state == Shared
	if present && (l.state == Modified || l.state == Exclusive) {
		return // another of our accesses cannot have done this; defensive
	}
	if !write && hasShared {
		return // read satisfied by the surviving Shared copy
	}
	if !present {
		l = c.victim(block)
	}
	c.touch(l)

	home := int(block % uint64(s.cfg.Processors))
	ctl := s.cfg.ControlBytes
	data := s.cfg.DataBytes()
	e := s.entry(block)

	// Request to home.
	s.send(p, proc, home, ctl)
	p.Hold(s.cfg.DirectoryTime)

	if !write {
		s.stats.ReadMisses++
		if e.owner >= 0 && e.owner != proc {
			// Fetch from the owner, downgrading it to Shared. A Modified
			// owner must write the line back; a clean Exclusive owner
			// (MESI) only acknowledges.
			s.stats.OwnerFetches++
			owner := e.owner
			s.send(p, home, owner, ctl) // fetch request
			if s.ownerState(owner, block) == Modified {
				s.send(p, owner, home, data) // owner writes back
				p.Hold(s.cfg.DirectoryTime)  // memory update
			} else {
				s.send(p, owner, home, ctl) // clean ack
			}
			s.setState(owner, block, Shared)
			e.sharers[owner] = true
			e.owner = -1
		}
		s.send(p, home, proc, data) // data reply
		l.tag = block
		if s.cfg.Protocol == MESI && e.owner < 0 && len(e.sharers) == 0 {
			// Uncached block: grant it exclusively.
			s.stats.ExclusiveGrants++
			l.state = Exclusive
			e.owner = proc
			return
		}
		e.sharers[proc] = true
		l.state = Shared
		return
	}

	// Write: upgrade or full miss.
	if hasShared {
		s.stats.Upgrades++
	} else {
		s.stats.WriteMisses++
	}
	if e.owner >= 0 && e.owner != proc {
		// Fetch-and-invalidate the owner (data only if it was dirty).
		s.stats.OwnerFetches++
		owner := e.owner
		s.send(p, home, owner, ctl)
		if s.ownerState(owner, block) == Modified {
			s.send(p, owner, home, data)
			p.Hold(s.cfg.DirectoryTime)
		} else {
			s.send(p, owner, home, ctl)
		}
		s.setState(owner, block, Invalid)
		e.owner = -1
	}
	// Invalidate every other sharer in parallel; home collects the acks.
	// The sharer set is a map: sort so the INVs inject in processor order,
	// keeping the run (and its network log) bit-for-bit reproducible.
	var targets []int
	for sh := range e.sharers {
		if sh != proc {
			targets = append(targets, sh)
		}
	}
	sort.Ints(targets)
	if len(targets) > 0 {
		s.invalidateAll(p, home, block, targets)
		for _, t := range targets {
			delete(e.sharers, t)
		}
	}
	delete(e.sharers, proc)
	if hasShared {
		s.send(p, home, proc, ctl) // upgrade grant, no data needed
	} else {
		s.send(p, home, proc, data)
	}
	e.owner = proc
	l.tag = block
	l.state = Modified
}

// ownerState reports the state the owner actually holds the block in
// (Invalid if an eviction raced the directory, which the protocol treats
// as clean).
func (s *System) ownerState(proc int, block uint64) LineState {
	if l, ok := s.caches[proc].lookup(block); ok {
		return l.state
	}
	return Invalid
}

// setState mutates another processor's cache line for block, if present.
func (s *System) setState(proc int, block uint64, st LineState) {
	if l, ok := s.caches[proc].lookup(block); ok {
		l.state = st
		if st == Invalid {
			s.stats.Invalidations++
		}
	}
}

// invalidateAll sends INV from home to every target concurrently, applies
// the invalidation at each target when its INV arrives, has each target ack
// back to home, and resumes p when the last ack is home.
func (s *System) invalidateAll(p *sim.Process, home int, block uint64, targets []int) {
	ctl := s.cfg.ControlBytes
	remaining := len(targets)
	w := sim.WakerFor(p)
	for _, t := range targets {
		t := t
		s.stats.ControlMsgs += 2
		if t == home {
			// Local invalidate: apply and ack with only NI delays.
			s.sim.Schedule(sim.Duration(2*s.net.Config().LocalDelay), func() {
				s.setState(t, block, Invalid)
				remaining--
				if remaining == 0 {
					w.Wake()
				}
			})
			continue
		}
		s.net.Inject(mesh.Message{
			ID: s.net.NextID(), Src: home, Dst: t, Bytes: ctl, Inject: p.Now(),
		}, func(d mesh.Delivery) {
			s.setState(t, block, Invalid)
			// Ack back to home.
			s.net.Inject(mesh.Message{
				ID: s.net.NextID(), Src: t, Dst: home, Bytes: ctl, Inject: d.End,
			}, func(mesh.Delivery) {
				remaining--
				if remaining == 0 {
					w.Wake()
				}
			})
		})
	}
	for remaining > 0 {
		p.Suspend()
	}
}

// InvariantError describes a coherence violation found by CheckInvariants.
type InvariantError struct {
	Block  uint64
	Detail string
}

func (e InvariantError) Error() string {
	return fmt.Sprintf("ccnuma: block %d: %s", e.Block, e.Detail)
}

// CheckInvariants verifies the single-writer/multiple-reader property over
// all caches and the directory. Intended for tests; call when the
// simulation is quiescent.
func (s *System) CheckInvariants() error {
	type holder struct {
		proc  int
		state LineState
	}
	byBlock := map[uint64][]holder{}
	for proc, c := range s.caches {
		for _, l := range c.lines {
			if l.state != Invalid {
				byBlock[l.tag] = append(byBlock[l.tag], holder{proc, l.state})
			}
		}
	}
	for block, hs := range byBlock {
		exclusive := 0 // Modified or Exclusive copies
		var exclusiveHolder int
		for _, h := range hs {
			if h.state == Modified || h.state == Exclusive {
				exclusive++
				exclusiveHolder = h.proc
			}
		}
		if exclusive > 1 {
			return InvariantError{block, "multiple exclusive-class (M/E) copies"}
		}
		if exclusive == 1 && len(hs) > 1 {
			return InvariantError{block, "exclusive-class copy coexists with other copies"}
		}
		if exclusive == 1 {
			e := s.dir[block]
			if e == nil || e.owner != exclusiveHolder {
				return InvariantError{block, fmt.Sprintf("directory owner mismatch (cache says %d)", exclusiveHolder)}
			}
		}
	}
	// Directory owners must hold their lines Modified or Exclusive.
	for block, e := range s.dir {
		if e.owner >= 0 {
			l, ok := s.caches[e.owner].lookup(block)
			if !ok || (l.state != Modified && l.state != Exclusive) {
				return InvariantError{block, fmt.Sprintf("owner %d does not hold the line exclusively", e.owner)}
			}
		}
	}
	return nil
}
