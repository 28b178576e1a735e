package mesh

import (
	"fmt"
	"strings"
)

// karyCube is the k-ary n-cube family: an n-dimensional grid with (torus)
// or without (mesh) wraparound links, dimension-order routed. The paper's
// 2-D mesh and torus are the dims=[W,H] members; a 3-D or 4-D torus (the
// QCDSP machine) is the same code with more dimensions.
//
// Port numbering: port 2d is the +direction of dimension d, port 2d+1 the
// -direction. For dims=[W,H] this reproduces the historical east(0),
// west(1), north(2), south(3) order exactly, so link ids, routes, and
// therefore simulation outcomes for the 2-D fabrics are unchanged.
type karyCube struct {
	dims   []int
	wrap   bool  // torus when true, mesh when false
	stride []int // node id stride per dimension; stride[0] = 1
	nodes  int
}

// newKAryCube builds the fabric. Every dimension must be >= 1; wraparound
// on a 1-wide dimension is degenerate and rejected by Config.Validate.
func newKAryCube(dims []int, wrap bool) *karyCube {
	t := &karyCube{dims: append([]int(nil), dims...), wrap: wrap}
	t.stride = make([]int, len(dims))
	t.nodes = 1
	for d, k := range dims {
		t.stride[d] = t.nodes
		t.nodes *= k
	}
	return t
}

func (t *karyCube) Name() string {
	var b strings.Builder
	if t.wrap {
		b.WriteString("torus")
	} else {
		b.WriteString("mesh")
	}
	for d, k := range t.dims {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", k)
	}
	return b.String()
}

func (t *karyCube) Nodes() int     { return t.nodes }
func (t *karyCube) Endpoints() int { return t.nodes }

func (t *karyCube) Degree(node int) int { return 2 * len(t.dims) }

// coord extracts the coordinate of node along dimension d.
func (t *karyCube) coord(node, d int) int { return node / t.stride[d] % t.dims[d] }

func (t *karyCube) Neighbor(node, port int) int {
	d := port / 2
	c := t.coord(node, d)
	nc := c + 1
	if port%2 == 1 {
		nc = c - 1
	}
	if nc < 0 || nc >= t.dims[d] {
		if !t.wrap {
			return -1
		}
		nc = (nc + t.dims[d]) % t.dims[d]
	}
	return node + (nc-c)*t.stride[d]
}

func (t *karyCube) MinVirtualChannels() int {
	if t.wrap {
		return 2 // dateline lane classes
	}
	return 1
}

// Route is dimension-order routing, lowest dimension first (XY on the 2-D
// members). On a torus each dimension independently picks the shorter way
// around (ties to the +direction) and switches from lane 0 to lane 1 after
// crossing that dimension's dateline, the classic deadlock-avoidance
// discipline; on a mesh any lane works.
func (t *karyCube) Route(path []Step, src, dst int) []Step {
	cur := src
	for d := range t.dims {
		c, target, size := t.coord(cur, d), t.coord(dst, d), t.dims[d]
		if c == target {
			continue
		}
		pos, dist := true, 0
		if t.wrap {
			fwd := (target - c + size) % size
			if fwd <= size-fwd {
				dist = fwd
			} else {
				pos, dist = false, size-fwd
			}
		} else if target > c {
			dist = target - c
		} else {
			pos, dist = false, c-target
		}
		port := 2 * d
		if !pos {
			port++
		}
		lane := 0
		if !t.wrap {
			lane = LaneAny
		}
		for i := 0; i < dist; i++ {
			path = append(path, Step{Port: port, Lane: lane})
			next := t.Neighbor(cur, port)
			nc := t.coord(next, d)
			// Crossing the dateline (a wraparound hop) switches the
			// virtual-channel class on a torus.
			if t.wrap && ((pos && nc < c) || (!pos && nc > c)) {
				lane = 1
			}
			cur, c = next, nc
		}
	}
	return path
}

// AdaptiveNext implements minimal west-first adaptive routing for the 2-D
// mesh member: all westward hops are mandatory; afterwards the productive
// directions (east, then north/south) are candidates and the engine picks
// the least loaded. Config.Validate restricts west-first to 2-D meshes.
func (t *karyCube) AdaptiveNext(buf []int, cur, dst int) []int {
	cx, cy := t.coord(cur, 0), t.coord(cur, 1)
	dx, dy := t.coord(dst, 0), t.coord(dst, 1)
	if dx < cx {
		return append(buf, int(dirWest))
	}
	if dx > cx {
		buf = append(buf, int(dirEast))
	}
	if dy > cy {
		buf = append(buf, int(dirNorth))
	} else if dy < cy {
		buf = append(buf, int(dirSouth))
	}
	return buf
}
