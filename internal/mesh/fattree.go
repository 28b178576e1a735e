package mesh

import "fmt"

// fatTree is the k-ary n-tree: k^n endpoint leaves under n levels of
// k^(n-1) switches each, the indirect fabric of SP2-class machines. Leaves
// are nodes 0..k^n-1; the level-l switch w is node k^n + l*k^(n-1) + w.
//
// Wiring follows the standard digit construction: level-l switch w and
// level-(l+1) switch w' are connected iff their base-k digits agree at
// every index except l. Switch ports 0..k-1 go down (port j sets digit
// l-1, or selects leaf j at level 0), ports k..2k-1 go up (port k+j sets
// digit l). Routing is deterministic up/down: climb to the nearest common
// ancestor level choosing each up port from the destination's digits (so
// the whole path is a pure function of (src, dst)), then descend along
// the destination's digits. Up/down channel ordering is acyclic, so a
// single lane is deadlock-free.
type fatTree struct {
	arity  int // k
	levels int // n
	leaves int // k^n
	perLvl int // switches per level, k^(n-1)
}

func newFatTree(arity, levels int) *fatTree {
	t := &fatTree{arity: arity, levels: levels, leaves: 1, perLvl: 1}
	for i := 0; i < levels; i++ {
		t.leaves *= arity
	}
	for i := 0; i < levels-1; i++ {
		t.perLvl *= arity
	}
	return t
}

func (t *fatTree) Name() string   { return fmt.Sprintf("fattree%d:%d", t.arity, t.levels) }
func (t *fatTree) Endpoints() int { return t.leaves }
func (t *fatTree) Nodes() int     { return t.leaves + t.levels*t.perLvl }

func (t *fatTree) MinVirtualChannels() int { return 1 }

// digit returns base-k digit i of x.
func (t *fatTree) digit(x, i int) int {
	for ; i > 0; i-- {
		x /= t.arity
	}
	return x % t.arity
}

// setDigit returns x with base-k digit i replaced by v.
func (t *fatTree) setDigit(x, i, v int) int {
	p := 1
	for j := 0; j < i; j++ {
		p *= t.arity
	}
	return x + (v-t.digit(x, i))*p
}

// level returns the switch level of node (-1 for a leaf) and its index
// within the level.
func (t *fatTree) level(node int) (l, w int) {
	if node < t.leaves {
		return -1, node
	}
	s := node - t.leaves
	return s / t.perLvl, s % t.perLvl
}

func (t *fatTree) switchID(l, w int) int { return t.leaves + l*t.perLvl + w }

func (t *fatTree) Degree(node int) int {
	l, _ := t.level(node)
	switch {
	case l < 0: // leaf: one up port to its level-0 switch
		return 1
	case l == t.levels-1: // top level: down ports only
		return t.arity
	default:
		return 2 * t.arity
	}
}

func (t *fatTree) Neighbor(node, port int) int {
	l, w := t.level(node)
	switch {
	case l < 0:
		return t.switchID(0, w/t.arity)
	case port < t.arity: // down
		if l == 0 {
			return w*t.arity + port
		}
		return t.switchID(l-1, t.setDigit(w, l-1, port))
	default: // up
		return t.switchID(l+1, t.setDigit(w, l, port-t.arity))
	}
}

func (t *fatTree) Route(path []Step, src, dst int) []Step {
	// Nearest-common-ancestor level: the highest differing digit.
	nca := 0
	for i := 0; i < t.levels; i++ {
		if t.digit(src, i) != t.digit(dst, i) {
			nca = i
		}
	}
	path = append(path, Step{Port: 0, Lane: LaneAny}) // leaf -> level-0 switch
	for l := 0; l < nca; l++ {
		path = append(path, Step{Port: t.arity + t.digit(dst, l+1), Lane: LaneAny})
	}
	for l := nca; l >= 0; l-- {
		path = append(path, Step{Port: t.digit(dst, l), Lane: LaneAny})
	}
	return path
}
