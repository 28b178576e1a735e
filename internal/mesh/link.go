package mesh

import "commchar/internal/sim"

// direction indexes the four outgoing physical links of a router.
type direction int

const (
	dirEast  direction = iota // +X
	dirWest                   // -X
	dirNorth                  // +Y
	dirSouth                  // -Y
	numDirections
)

// anyLane requests whichever virtual channel is free first.
const anyLane = -1

// link is one directed physical channel between adjacent routers, carrying
// Config.VirtualChannels lanes. Arbitration is a single FCFS queue of
// worms; a worm may demand a specific lane (torus dateline classes) or any
// lane.
type link struct {
	id    int
	from  int
	to    int
	lanes []laneState
	queue []*worm // waiting for a lane, in arrival order

	// Statistics.
	grants       int64
	busyLaneTime sim.Duration
	flits        int64
}

type laneState struct {
	busy      bool
	busySince sim.Time
}

// tryGrant grants a lane immediately if one matching the request (a lane
// index, or anyLane) is free, returning it, or -1.
func (l *link) tryGrant(lane int, now sim.Time) int {
	if lane == anyLane {
		for i := range l.lanes {
			if !l.lanes[i].busy {
				l.grantLane(i, now)
				return i
			}
		}
		return -1
	}
	if !l.lanes[lane].busy {
		l.grantLane(lane, now)
		return lane
	}
	return -1
}

func (l *link) grantLane(i int, now sim.Time) {
	l.lanes[i].busy = true
	l.lanes[i].busySince = now
	l.grants++
}

// release frees lane i and hands it to the first compatible queued worm,
// which resumes at the current time (after same-time events already on
// the calendar).
func (l *link) release(i int, now sim.Time) {
	if !l.lanes[i].busy {
		panic("mesh: releasing idle lane")
	}
	l.busyLaneTime += sim.Duration(now - l.lanes[i].busySince)
	l.lanes[i].busy = false
	for qi, w := range l.queue {
		if w.next.lane == anyLane || w.next.lane == i {
			l.queue = append(l.queue[:qi], l.queue[qi+1:]...)
			l.grantLane(i, now)
			w.granted = i
			w.net.sim.Schedule(0, w.fire)
			return
		}
	}
}

// load is the adaptive router's congestion estimate for this link: busy
// lanes plus queued worms.
func (l *link) load() int {
	busy := 0
	for _, lane := range l.lanes {
		if lane.busy {
			busy++
		}
	}
	return busy + len(l.queue)
}

// LinkStat is the per-physical-link utilization record exposed in reports.
type LinkStat struct {
	From, To    int
	Grants      int64
	Flits       int64
	Utilization float64 // busy lane-time / (lanes × elapsed)
}
