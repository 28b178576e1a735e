package mesh

import "commchar/internal/sim"

// worm is one message's traversal of the fabric: the wormhole head
// walking the route, holding the channels the worm occupies and releasing
// each channel once the tail has passed it. It is a state machine driven
// by calendar callbacks, not a process: every point where a worm waits —
// for its injection time, for a hop, for a lane, for its tail to drain,
// for a retransmission backoff — parks it with exactly one calendar event
// that calls fire, so no goroutine exists per message. A zero-length wait
// continues inline, as Process.Hold(0) does.
//
// The head's next hop comes from the configured router: a precomputed
// dimension-order path, or per-hop west-first adaptive selection. With a
// fault injector installed, a killed worm (drop, transient outage,
// corrupted delivery) is retransmitted from the source after capped
// exponential backoff; a permanently-failed link triggers a deterministic
// reroute around the fault, and an unreachable destination fails the
// message with ErrPartitioned.
type worm struct {
	net     *Network
	m       Message
	done    func(Delivery)
	flits   int
	fire    func() // w.run, bound once per worm
	drainFn func() // w.releaseTail, bound once per worm

	state   wormState
	attempt int          // retransmissions so far
	blocked sim.Duration // time the head spent waiting on busy channels
	flags   FaultFlags

	// The current attempt.
	path     []hop // nil under adaptive routing
	pathIdx  int
	cur      int   // node the head is at
	acquired []hop // hops taken, in order
	held     []int // lane per acquired hop; -1 after release
	next     hop   // the hop being acquired or crossed
	hopTime  sim.Duration
	arrived  sim.Time // when the head queued for next's link
	granted  int      // lane granted by link.release while queued
	drained  int      // first acquired index the tail drain has not passed

	nextFree *worm // Network's free list

	// Network's list of live worms, those injected but not yet finished.
	prevLive, nextLive *worm
}

// wormState names what a worm does when its pending callback fires.
type wormState int

const (
	wormInjected wormState = iota // start: the message is handed to the source
	wormLocal                     // source == destination: LocalDelay elapsed
	wormBackoff                   // retransmission backoff elapsed
	wormQueued                    // granted a lane it queued for
	wormCrossing                  // head finished crossing next
	wormDraining                  // tail reached the destination
)

// newWorm takes a worm for m from the free list, or makes one.
func (n *Network) newWorm(m Message, done func(Delivery)) *worm {
	w := n.free
	if w != nil {
		n.free, w.nextFree = w.nextFree, nil
	} else {
		w = &worm{net: n}
		w.fire, w.drainFn = w.run, w.releaseTail
	}
	w.m, w.done, w.flits = m, done, n.cfg.Flits(m.Bytes)
	return w
}

// run is the worm's calendar callback: it resumes the worm from the state
// it parked in.
func (w *worm) run() {
	switch w.state {
	case wormInjected:
		if w.m.Src == w.m.Dst {
			w.hold(w.net.cfg.LocalDelay, wormLocal)
			return
		}
		w.startAttempt()
	case wormLocal:
		w.finish(0, nil)
	case wormBackoff:
		w.attempt++
		w.startAttempt()
	case wormQueued:
		w.blocked += sim.Duration(w.net.sim.Now() - w.arrived)
		w.cross(w.granted)
	case wormCrossing:
		w.crossed()
	case wormDraining:
		w.finish(len(w.acquired), nil)
	}
}

// hold parks the worm for d, to resume in state next. It must be the
// worm's last action in the current callback: a zero hold resumes inline.
func (w *worm) hold(d sim.Duration, next wormState) {
	w.state = next
	if d == 0 {
		w.run()
		return
	}
	w.net.sim.Schedule(d, w.fire)
}

// startAttempt begins one traversal from the source.
func (w *worm) startAttempt() {
	n := w.net
	now := n.sim.Now()
	// A cancelled run must not keep retransmitting: if the simulator is
	// stepped past the cancellation point (a caller draining the
	// calendar), the worm gives itself up instead of spinning through its
	// backoff schedule.
	if n.sim.Interrupted() != nil {
		n.noteInterrupt()
		w.finish(0, &ErrCancelled{MsgID: w.m.ID, Src: w.m.Src, Dst: w.m.Dst, Retries: w.attempt, Time: now})
		return
	}
	w.cur, w.pathIdx = w.m.Src, 0
	w.acquired, w.held = w.acquired[:0], w.held[:0]
	w.path = nil
	// Dimension-order paths are precomputed and, when a permanently-failed
	// link blocks them, replaced by the deterministic BFS detour;
	// west-first picks each hop adaptively.
	if n.cfg.Routing != RoutingWestFirst {
		w.path = n.route(w.m.Src, w.m.Dst)
		if n.faults != nil && n.pathBroken(w.path, now) {
			w.path = n.routeAvoiding(w.m.Src, w.m.Dst, now)
			if w.path == nil {
				w.partition()
				return
			}
			w.flags |= FaultRerouted
		}
	}
	w.advance()
}

// advance moves the head one hop on from w.cur: it picks the hop, applies
// the link's faults, and either crosses or queues for a lane. At the
// destination it starts the tail drain instead.
func (w *worm) advance() {
	n := w.net
	cfg := &n.cfg
	now := n.sim.Now()
	if w.cur == w.m.Dst {
		w.arrive()
		return
	}
	for {
		var h hop
		if w.path != nil {
			h = w.path[w.pathIdx]
		} else {
			h = hop{link: n.chooseWestFirst(w.cur, w.m.Dst), lane: anyLane}
		}
		hopTime := cfg.CycleTime * sim.Duration(1+cfg.RouterDelay)
		if n.faults != nil {
			f := n.faults.LinkFault(h.link.from, h.link.to, now)
			if f.Down {
				if f.Permanent && w.path != nil {
					// Reroute around the failure from the current node,
					// keeping the channels already acquired.
					alt := n.routeAvoiding(w.cur, w.m.Dst, now)
					if alt == nil {
						w.partition()
						return
					}
					w.flags |= FaultRerouted
					w.path, w.pathIdx = alt, 0
					continue
				}
				// Transient outage (or adaptive routing, which cannot
				// follow a detour path): kill the worm and retransmit.
				w.kill(FaultLinkDown)
				return
			}
			if n.faults.Drop(w.m.ID, w.attempt, len(w.acquired), h.link.from, h.link.to, now) {
				w.kill(FaultDropped)
				return
			}
			if f.SlowFactor > 1 {
				w.flags |= FaultSlowed
				hopTime *= sim.Duration(f.SlowFactor)
			}
		}
		w.next, w.hopTime = h, hopTime
		if lane := h.link.tryGrant(h.lane, now); lane >= 0 {
			w.cross(lane)
			return
		}
		w.state, w.arrived = wormQueued, now
		h.link.queue = append(h.link.queue, w)
		return
	}
}

// cross takes the granted lane on w.next and starts the head across it.
func (w *worm) cross(lane int) {
	w.acquired = append(w.acquired, w.next)
	w.held = append(w.held, lane)
	w.hold(w.hopTime, wormCrossing)
}

// crossed lands the head on the far side of w.next and moves on.
func (w *worm) crossed() {
	w.next.link.flits += int64(w.flits)
	// With single-flit buffers the tail crosses link i when the head has
	// crossed link i+flits-1; free that channel for other worms.
	if back := len(w.acquired) - w.flits; back >= 0 {
		w.acquired[back].link.release(w.held[back], w.net.sim.Now())
		w.held[back] = -1
	}
	if w.path != nil {
		w.pathIdx++
	}
	w.cur = w.next.link.to
	w.advance()
}

// arrive handles the head reaching the destination: a corrupted delivery
// is retransmitted; otherwise the remaining flits stream in one per
// cycle and the trailing channels drain in pipeline order.
func (w *worm) arrive() {
	n := w.net
	cfg := &n.cfg
	now := n.sim.Now()
	// A corrupted-length delivery is detected at the destination after the
	// worm has consumed the fabric; its channels are freed and the message
	// is retransmitted.
	if n.faults != nil && n.faults.Corrupt(w.m.ID, w.attempt, now) {
		w.kill(FaultCorrupted)
		return
	}
	drain := sim.Duration(w.flits-1) * cfg.CycleTime
	end := now + sim.Time(drain)
	w.drained = 0
	for i, lane := range w.held {
		if lane < 0 {
			continue
		}
		tailPass := end - sim.Time(len(w.acquired)-1-i)*sim.Time(cfg.CycleTime)
		if tailPass < now {
			tailPass = now
		}
		n.sim.At(tailPass, w.drainFn)
	}
	w.hold(drain, wormDraining)
}

// releaseTail is the drain's calendar callback: it frees the next channel
// the tail passes. arrive schedules one per held lane, in acquired order at
// nondecreasing times, so they fire in that order; and all fire no later
// than the drain itself ends, so the worm is still live for each.
func (w *worm) releaseTail() {
	for w.held[w.drained] < 0 {
		w.drained++
	}
	w.acquired[w.drained].link.release(w.held[w.drained], w.net.sim.Now())
	w.held[w.drained] = -1
	w.drained++
}

// releaseAll frees every channel the worm still holds.
func (w *worm) releaseAll() {
	now := w.net.sim.Now()
	for i, lane := range w.held {
		if lane >= 0 {
			w.acquired[i].link.release(lane, now)
			w.held[i] = -1
		}
	}
}

// kill ends the attempt on a fault: the worm frees its channels and is
// retransmitted after backoff, or fails once its retries are used up.
func (w *worm) kill(fault FaultFlags) {
	w.releaseAll()
	w.flags |= fault
	cfg := &w.net.cfg
	if w.attempt >= cfg.MaxRetries {
		w.finish(len(w.acquired), &ErrExhausted{MsgID: w.m.ID, Src: w.m.Src, Dst: w.m.Dst,
			Retries: w.attempt, Time: w.net.sim.Now()})
		return
	}
	w.hold(cfg.backoff(w.attempt), wormBackoff)
}

// partition fails the message when permanent failures have cut the head,
// at w.cur, off from the destination.
func (w *worm) partition() {
	w.releaseAll()
	w.flags |= FaultPartitioned
	w.finish(0, &ErrPartitioned{MsgID: w.m.ID, Src: w.m.Src, Dst: w.m.Dst, At: w.cur, Time: w.net.sim.Now()})
}

// finish records the message's delivery (failed when err is non-nil) and
// returns the worm to the free list.
func (w *worm) finish(hops int, err error) {
	n := w.net
	m := &w.m
	d := Delivery{ID: m.ID, Src: int32(m.Src), Dst: int32(m.Dst), Bytes: m.Bytes, Inject: m.Inject,
		Blocked: w.blocked, Hops: int32(hops), Retries: uint16(w.attempt), Faults: w.flags}
	if err != nil {
		d.Status = StatusFailed
		n.failures = append(n.failures, err)
	}
	if w.prevLive != nil {
		w.prevLive.nextLive = w.nextLive
	} else {
		n.live = w.nextLive
	}
	if w.nextLive != nil {
		w.nextLive.prevLive = w.prevLive
	}
	n.complete(d, w.done)
	*w = worm{net: n, fire: w.fire, drainFn: w.drainFn, acquired: w.acquired[:0], held: w.held[:0],
		nextFree: n.free}
	n.free = w
}
