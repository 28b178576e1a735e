package spasm

import (
	"fmt"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// Synchronization is message-based, as on a real CC-NUMA without special
// hardware: barriers gather at and release from processor 0, and each lock
// lives on a home node that queues requesters. The messages travel the same
// mesh as coherence traffic, so synchronization shows up in the network log
// — which is why barrier-heavy applications exhibit processor 0 as a
// spatial "favorite" in the characterization, as the paper observes.

// syncBytes is the length of a synchronization control message.
const syncBytes = 8

// barrierState tracks the gather-release protocol across epochs. Counters
// (not booleans) keep overlapping epochs safe: a processor can be sent its
// release for barrier k while barrier k+1 arrivals are already in flight.
type barrierState struct {
	arrived        int // ARRIVE deliveries seen at processor 0 (linear)
	waiting0       *sim.Waker
	pendingRelease []int
	releaseWaiting map[int]sim.Waker

	// Tree barrier: per-processor child-arrival counters.
	childArrived  []int
	arriveWaiting map[int]sim.Waker
}

// Barrier blocks until all processors have entered it.
func (e *Env) Barrier() {
	t0 := e.p.Now()
	defer func() { e.prof.Sync += sim.Duration(e.p.Now() - t0) }()
	m := e.m
	b := &m.bar
	if b.releaseWaiting == nil {
		b.releaseWaiting = map[int]sim.Waker{}
		b.arriveWaiting = map[int]sim.Waker{}
		b.childArrived = make([]int, m.cfg.Processors)
	}
	n := m.cfg.Processors
	if n == 1 {
		return
	}
	if m.cfg.Barrier == BarrierTree {
		e.treeBarrier()
		return
	}

	if e.id == 0 {
		// Gather: wait for every other processor's arrival message.
		for b.arrived < n-1 {
			w := sim.WakerFor(e.p)
			b.waiting0 = &w
			e.p.Suspend()
		}
		b.waiting0 = nil
		b.arrived -= n - 1
		// Release everyone.
		for dst := 1; dst < n; dst++ {
			m.send(e.p.Now(), 0, dst, barrierRelease, nil, dst)
		}
		return
	}

	// Arrive at processor 0.
	m.send(e.p.Now(), e.id, 0, barrierArrive, nil, 0)
	// Wait for our release.
	for b.pendingRelease[e.id] == 0 {
		b.releaseWaiting[e.id] = sim.WakerFor(e.p)
		e.p.Suspend()
	}
	b.pendingRelease[e.id]--
}

// treeBarrier implements the gather-release barrier on a binary tree
// rooted at processor 0: each processor waits for its children, reports to
// its parent, and relays the release downward.
func (e *Env) treeBarrier() {
	m := e.m
	b := &m.bar
	n := m.cfg.Processors
	id := e.id
	var children []int
	for _, c := range []int{2*id + 1, 2*id + 2} {
		if c < n {
			children = append(children, c)
		}
	}
	parent := (id - 1) / 2

	// Gather: wait for every child's arrival message.
	for range children {
		for b.childArrived[id] == 0 {
			b.arriveWaiting[id] = sim.WakerFor(e.p)
			e.p.Suspend()
		}
		b.childArrived[id]--
	}
	if id != 0 {
		m.send(e.p.Now(), id, parent, barrierChild, nil, parent)
		// Wait for the release from the parent.
		for b.pendingRelease[id] == 0 {
			b.releaseWaiting[id] = sim.WakerFor(e.p)
			e.p.Suspend()
		}
		b.pendingRelease[id]--
	}
	// Relay the release to the children.
	for _, c := range children {
		m.send(e.p.Now(), id, c, barrierRelease, nil, c)
	}
}

// lockState is one lock's queue at its home node.
type lockState struct {
	home    int // the processor the lock lives on
	held    bool
	holder  int
	queue   []grantTarget
	pending map[int]int // processor -> grants not yet consumed
	waiting map[int]sim.Waker
}

type grantTarget struct {
	proc int
	at   sim.Time
}

func (m *Machine) lock(id int) *lockState {
	l, ok := m.locks[id]
	if !ok {
		l = &lockState{home: m.lockHome(id), holder: -1, pending: map[int]int{}, waiting: map[int]sim.Waker{}}
		m.locks[id] = l
	}
	return l
}

// lockHome maps a lock to its home processor.
func (m *Machine) lockHome(id int) int {
	h := id % m.cfg.Processors
	if h < 0 {
		h += m.cfg.Processors
	}
	return h
}

// Lock acquires the numbered lock, blocking in arrival (delivery) order.
func (e *Env) Lock(id int) {
	t0 := e.p.Now()
	defer func() { e.prof.Sync += sim.Duration(e.p.Now() - t0) }()
	l := e.m.lock(id)
	// Request travels to the lock's home, and the grant back.
	e.m.send(e.p.Now(), e.id, l.home, lockRequest, l, e.id)
	for l.pending[e.id] == 0 {
		l.waiting[e.id] = sim.WakerFor(e.p)
		e.p.Suspend()
	}
	l.pending[e.id]--
}

// Unlock releases the numbered lock. The caller does not wait for the
// release message to reach the lock's home (release is asynchronous).
func (e *Env) Unlock(id int) {
	l := e.m.lock(id)
	if !l.held || l.holder != e.id {
		panic(fmt.Sprintf("spasm: processor %d unlocks lock %d held by %d", e.id, id, l.holder))
	}
	l.holder = -1 // logically released; home processes the message on arrival
	e.m.send(e.p.Now(), e.id, l.home, lockRelease, l, e.id)
}

// syncKind names what a synchronization message does when it arrives.
type syncKind uint8

const (
	barrierArrive  syncKind = iota // linear barrier: an arrival reaches processor 0
	barrierChild                   // tree barrier: a child's arrival reaches proc
	barrierRelease                 // a barrier release reaches proc
	lockRequest                    // proc's request reaches the lock's home
	lockGrant                      // the lock's grant reaches proc
	lockRelease                    // the holder's release reaches the lock's home
)

// syncMsg is one synchronization message in flight: what it does on
// arrival, on which lock, for which processor. Records come from the
// machine's free list and bind their arrival callbacks once, when made,
// as mesh's worms do, so a message allocates nothing in the steady state.
type syncMsg struct {
	m    *Machine
	kind syncKind
	lock *lockState // lock messages only
	proc int

	arriveFn    func()              // r.arrive, bound once per record
	deliveredFn func(mesh.Delivery) // r.delivered, bound once per record
	nextFree    *syncMsg
}

// delivered is the network's delivery callback for a remote message.
func (r *syncMsg) delivered(mesh.Delivery) { r.arrive() }

// arrive runs the message's effect at its destination. The record goes
// back to the free list first, so a message sent from here reuses it.
func (r *syncMsg) arrive() {
	m, l, proc := r.m, r.lock, r.proc
	r.nextFree, m.freeSync = m.freeSync, r
	b := &m.bar
	switch r.kind {
	case barrierArrive:
		b.arrived++
		if b.waiting0 != nil {
			w := *b.waiting0
			b.waiting0 = nil
			w.Wake()
		}
	case barrierChild:
		b.childArrived[proc]++
		wake(b.arriveWaiting, proc)
	case barrierRelease:
		b.pendingRelease[proc]++
		wake(b.releaseWaiting, proc)
	case lockRequest:
		if !l.held {
			l.held = true
			l.holder = proc
			m.send(m.Sim.Now(), l.home, proc, lockGrant, l, proc)
			return
		}
		l.queue = append(l.queue, grantTarget{proc: proc, at: m.Sim.Now()})
	case lockGrant:
		l.pending[proc]++
		wake(l.waiting, proc)
	case lockRelease:
		if len(l.queue) == 0 {
			l.held = false
			return
		}
		next := l.queue[0]
		// Shift rather than reslice, so the queue's array is reused and
		// the next append does not reallocate it.
		l.queue = l.queue[:copy(l.queue, l.queue[1:])]
		l.holder = next.proc
		m.send(m.Sim.Now(), l.home, next.proc, lockGrant, l, next.proc)
	}
}

// wake resumes the process waiting in waiting under proc, if there is one.
func wake(waiting map[int]sim.Waker, proc int) {
	if w, ok := waiting[proc]; ok {
		delete(waiting, proc)
		w.Wake()
	}
}

// send injects a synchronization control message of the given kind,
// which arrive carries out on delivery. The record comes from the
// machine's free list, and the network calls its bound callback, so a
// message allocates nothing once the list holds as many records as are
// ever in flight. Same-node messages skip the fabric but still pay the
// local interface delay.
func (m *Machine) send(at sim.Time, src, dst int, kind syncKind, l *lockState, proc int) {
	r := m.freeSync
	if r != nil {
		m.freeSync, r.nextFree = r.nextFree, nil
	} else {
		r = &syncMsg{m: m}
		r.arriveFn, r.deliveredFn = r.arrive, r.delivered
	}
	r.kind, r.lock, r.proc = kind, l, proc
	if src == dst {
		m.Sim.At(at+sim.Time(m.cfg.Mesh.LocalDelay), r.arriveFn)
		return
	}
	m.Net.Inject(mesh.Message{
		Src: src, Dst: dst, Bytes: syncBytes, Inject: at,
	}, r.deliveredFn)
}
