package mesh

import "fmt"

// dragonfly is the balanced two-tier direct fabric of Kim/Dally: groups of
// a routers, each router owning one endpoint, a complete graph inside each
// group, and h global links per router giving g = a*h + 1 groups so every
// group pair is joined by exactly one global channel. Node id = group*a +
// router-in-group.
//
// Ports 0..a-2 are the intra-group links to the other a-1 routers in
// ascending index order; ports a-1..a-2+h are the global channels. Global
// channel j (= routerInGroup*h + localChannel) of group G lands in group
// (G+j+1) mod g, whose paired channel back is g-2-j — a fixed bijection,
// so the wiring and every route are pure functions of the parameters.
//
// Routing is minimal and deterministic: at most local→global→local. The
// lane class increments from 0 to 1 after the global hop, the standard
// virtual-channel discipline that cuts the local/global/local dependency
// cycle, so two lanes suffice for deadlock freedom.
type dragonfly struct {
	routers int // a: routers per group
	globals int // h: global channels per router
	groups  int // g = a*h + 1
}

func newDragonfly(routers, globals int) *dragonfly {
	return &dragonfly{routers: routers, globals: globals, groups: routers*globals + 1}
}

func (t *dragonfly) Name() string {
	return fmt.Sprintf("dragonfly a%dh%d", t.routers, t.globals)
}

func (t *dragonfly) Nodes() int              { return t.routers * t.groups }
func (t *dragonfly) Endpoints() int          { return t.routers * t.groups }
func (t *dragonfly) Degree(node int) int     { return t.routers - 1 + t.globals }
func (t *dragonfly) MinVirtualChannels() int { return 2 }

func (t *dragonfly) Neighbor(node, port int) int {
	group, ri := node/t.routers, node%t.routers
	if port < t.routers-1 {
		// Intra-group: the port-th other router in ascending order.
		peer := port
		if peer >= ri {
			peer++
		}
		return group*t.routers + peer
	}
	// Global channel j of this group, owned by router ri.
	j := ri*t.globals + (port - (t.routers - 1))
	dstGroup := (group + j + 1) % t.groups
	back := t.groups - 2 - j // the paired channel in the destination group
	return dstGroup*t.routers + back/t.globals
}

// intraPort returns the port on router from (within a group) that reaches
// router to of the same group.
func (t *dragonfly) intraPort(from, to int) int {
	if to > from {
		return to - 1
	}
	return to
}

func (t *dragonfly) Route(path []Step, src, dst int) []Step {
	sg, si := src/t.routers, src%t.routers
	dg, di := dst/t.routers, dst%t.routers
	if sg == dg {
		return append(path, Step{Port: t.intraPort(si, di), Lane: 0})
	}
	// The unique global channel from sg to dg, and the routers it joins.
	j := (dg - sg - 1 + t.groups) % t.groups
	exit := j / t.globals
	entry := (t.groups - 2 - j) / t.globals
	if si != exit {
		path = append(path, Step{Port: t.intraPort(si, exit), Lane: 0})
	}
	path = append(path, Step{Port: t.routers - 1 + j%t.globals, Lane: 0})
	if entry != di {
		path = append(path, Step{Port: t.intraPort(entry, di), Lane: 1})
	}
	return path
}
