package mesh

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

// testFabrics returns one instance of every topology family, sized small
// enough that exhaustive all-pairs properties stay fast.
func testFabrics() map[string]Topology {
	return map[string]Topology{
		"mesh4x4":      newKAryCube([]int{4, 4}, false),
		"mesh2x3x2":    newKAryCube([]int{2, 3, 2}, false),
		"torus4x4":     newKAryCube([]int{4, 4}, true),
		"torus3x3x3":   newKAryCube([]int{3, 3, 3}, true),
		"torus2x2x2x2": newKAryCube([]int{2, 2, 2, 2}, true),
		"hypercube4d":  &hypercube{dimensions: 4},
		"fattree2:3":   newFatTree(2, 3),
		"fattree4:2":   newFatTree(4, 2),
		"dragonfly41":  newDragonfly(4, 1),
		"dragonfly42":  newDragonfly(4, 2),
	}
}

// walkRoute follows a route step by step through Neighbor and returns the
// terminal node, failing the test on an unwired port.
func walkRoute(t *testing.T, topo Topology, src int, path []Step) int {
	t.Helper()
	cur := src
	for i, s := range path {
		if s.Port < 0 || s.Port >= topo.Degree(cur) {
			t.Fatalf("%s: step %d of route from %d uses port %d of a degree-%d node",
				topo.Name(), i, src, s.Port, topo.Degree(cur))
		}
		next := topo.Neighbor(cur, s.Port)
		if next < 0 {
			t.Fatalf("%s: step %d of route from %d crosses unwired port %d of node %d",
				topo.Name(), i, src, s.Port, cur)
		}
		cur = next
	}
	return cur
}

// TestRouteDeterministicAndWellFormed: Route is a pure function of
// (src, dst), every step crosses a wired port, the path ends at dst, and
// every lane class fits inside MinVirtualChannels.
func TestRouteDeterministicAndWellFormed(t *testing.T) {
	for name, topo := range testFabrics() {
		t.Run(name, func(t *testing.T) {
			n := topo.Endpoints()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					path := topo.Route(nil, src, dst)
					if again := topo.Route(nil, src, dst); !reflect.DeepEqual(path, again) {
						t.Fatalf("route %d->%d differs between calls", src, dst)
					}
					if len(path) == 0 {
						t.Fatalf("route %d->%d is empty", src, dst)
					}
					if end := walkRoute(t, topo, src, path); end != dst {
						t.Fatalf("route %d->%d ends at %d", src, dst, end)
					}
					for i, s := range path {
						if s.Lane != LaneAny && (s.Lane < 0 || s.Lane >= topo.MinVirtualChannels()) {
							t.Fatalf("route %d->%d step %d lane %d outside [0,%d)",
								src, dst, i, s.Lane, topo.MinVirtualChannels())
						}
					}
				}
			}
		})
	}
}

// bfsDistances returns the hop distance from src to every node over the
// Neighbor graph (switches included), -1 where unreachable.
func bfsDistances(topo Topology, src int) []int {
	dist := make([]int, topo.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for p := 0; p < topo.Degree(cur); p++ {
			next := topo.Neighbor(cur, p)
			if next >= 0 && dist[next] < 0 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

// TestRouteMinimality: fabrics that claim minimal routing produce routes
// exactly as long as the BFS shortest path (mesh, torus, hypercube, fat
// tree — where up/down is provably a geodesic). The dragonfly's claim is
// minimal *direct* routing: at most local-global-local, three hops.
func TestRouteMinimality(t *testing.T) {
	for name, topo := range testFabrics() {
		t.Run(name, func(t *testing.T) {
			direct := false
			if _, ok := topo.(*dragonfly); ok {
				direct = true
			}
			n := topo.Endpoints()
			for src := 0; src < n; src++ {
				dist := bfsDistances(topo, src)
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					got := len(topo.Route(nil, src, dst))
					if direct {
						if got > 3 {
							t.Fatalf("dragonfly route %d->%d takes %d hops, max 3", src, dst, got)
						}
						continue
					}
					if got != dist[dst] {
						t.Fatalf("route %d->%d takes %d hops, shortest path is %d", src, dst, got, dist[dst])
					}
				}
			}
		})
	}
}

// TestHypercubeRoutesAreHamming pins the hypercube's minimality to the
// closed form: path length equals the Hamming distance of the endpoints.
func TestHypercubeRoutesAreHamming(t *testing.T) {
	topo := &hypercube{dimensions: 5}
	for src := 0; src < topo.Endpoints(); src++ {
		for dst := 0; dst < topo.Endpoints(); dst++ {
			if src == dst {
				continue
			}
			want := bits.OnesCount(uint(src ^ dst))
			if got := len(topo.Route(nil, src, dst)); got != want {
				t.Fatalf("route %d->%d takes %d hops, Hamming distance is %d", src, dst, got, want)
			}
		}
	}
}

// TestNeighborSymmetry: every wired port has a reverse port on the peer —
// the physical links of each fabric are bidirectional pairs.
func TestNeighborSymmetry(t *testing.T) {
	for name, topo := range testFabrics() {
		t.Run(name, func(t *testing.T) {
			for node := 0; node < topo.Nodes(); node++ {
				for p := 0; p < topo.Degree(node); p++ {
					peer := topo.Neighbor(node, p)
					if peer < 0 {
						continue
					}
					back := false
					for q := 0; q < topo.Degree(peer); q++ {
						if topo.Neighbor(peer, q) == node {
							back = true
							break
						}
					}
					if !back {
						t.Fatalf("link %d->%d (port %d) has no reverse port", node, peer, p)
					}
				}
			}
		})
	}
}

// chanID is a virtual channel of the dependency graph: a directed link
// plus the lane class a route acquires on it (LaneAny collapses to 0,
// which is exact for single-lane disciplines).
type chanID struct {
	from, to, lane int
}

// TestChannelDependencyAcyclic builds the channel-dependency graph over
// every endpoint-pair route of every fabric and rejects cycles: the
// Dally/Seitz condition for wormhole deadlock freedom, which each lane
// discipline (torus datelines, fat-tree up/down phases, dragonfly global
// hop increments) exists to guarantee.
func TestChannelDependencyAcyclic(t *testing.T) {
	for name, topo := range testFabrics() {
		t.Run(name, func(t *testing.T) {
			ids := map[chanID]int{}
			var order []chanID
			id := func(c chanID) int {
				if i, ok := ids[c]; ok {
					return i
				}
				i := len(order)
				ids[c] = i
				order = append(order, c)
				return i
			}
			adj := map[int][]int{}
			seen := map[[2]int]bool{}
			n := topo.Endpoints()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					cur, prev := src, -1
					for _, s := range topo.Route(nil, src, dst) {
						next := topo.Neighbor(cur, s.Port)
						lane := s.Lane
						if lane == LaneAny {
							lane = 0
						}
						c := id(chanID{from: cur, to: next, lane: lane})
						if prev >= 0 && !seen[[2]int{prev, c}] {
							seen[[2]int{prev, c}] = true
							adj[prev] = append(adj[prev], c)
						}
						prev, cur = c, next
					}
				}
			}
			// Iterative three-color DFS over channel ids in creation order.
			const (
				white = iota
				gray
				black
			)
			color := make([]int, len(order))
			for start := range order {
				if color[start] != white {
					continue
				}
				stack := []int{start}
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					if color[v] == white {
						color[v] = gray
						for _, w := range adj[v] {
							switch color[w] {
							case gray:
								t.Fatalf("channel dependency cycle through %+v -> %+v",
									order[v], order[w])
							case white:
								stack = append(stack, w)
							}
						}
						continue
					}
					color[v] = black
					stack = stack[:len(stack)-1]
				}
			}
		})
	}
}

// TestFabricNamesStable pins the config strings: they appear in metrics
// labels, debug pages, and report rows, so renames are breaking changes.
func TestFabricNamesStable(t *testing.T) {
	want := map[string]string{
		"mesh4x4":      "mesh4x4",
		"torus3x3x3":   "torus3x3x3",
		"torus2x2x2x2": "torus2x2x2x2",
		"hypercube4d":  "hypercube4d",
		"fattree4:2":   "fattree4:2",
		"dragonfly41":  "dragonfly a4h1",
	}
	fabrics := testFabrics()
	for key, name := range want {
		if got := fabrics[key].Name(); got != name {
			t.Errorf("%s renders as %q, want %q", key, got, name)
		}
	}
}

// TestEndpointsArePrefix: endpoint ids precede switch ids, and each
// fabric has the endpoint count its shape's arithmetic gives.
func TestEndpointsArePrefix(t *testing.T) {
	cfgs := map[string]struct {
		cfg       Config
		endpoints int
	}{
		"mesh":      {DefaultConfig(MeshTopology, 4, 4), 16},
		"torus":     {DefaultConfig(TorusTopology, 3, 3, 3), 27},
		"hypercube": {DefaultConfig(HypercubeTopology, 4), 16},
		"fattree":   {DefaultConfig(FatTreeTopology, 4, 2), 16},
		"dragonfly": {DefaultConfig(DragonflyTopology, 4, 1), 20},
	}
	for name, c := range cfgs {
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		topo := c.cfg.Fabric()
		if topo.Endpoints() != c.endpoints {
			t.Errorf("%s: fabric has %d endpoints, shape says %d", name, topo.Endpoints(), c.endpoints)
		}
		if topo.Endpoints() > topo.Nodes() {
			t.Errorf("%s: %d endpoints exceed %d nodes", name, topo.Endpoints(), topo.Nodes())
		}
	}
}

// TestValidateShapePerKind: Validate reads Dims by the per-kind convention
// documented on Config, rejecting a wrong count or an out-of-range value
// before Fabric ever indexes it, and DefaultConfig takes each fabric's
// lane floor.
func TestValidateShapePerKind(t *testing.T) {
	bad := []struct {
		kind Kind
		dims []int
		want string
	}{
		{MeshTopology, nil, "grid dimensions"},
		{MeshTopology, []int{2, 2, 2, 2, 2, 2, 2, 2, 2}, "grid dimensions"},
		{TorusTopology, []int{1, 4}, "grid dimension 1 invalid for torus"},
		{HypercubeTopology, []int{2, 2}, "hypercube takes one dimension value"},
		{HypercubeTopology, []int{21}, "hypercube dimensions 21 invalid"},
		{FatTreeTopology, []int{4}, "fattree takes [arity, levels]"},
		{FatTreeTopology, []int{1, 2}, "need arity >= 2"},
		{FatTreeTopology, []int{1 << 30, 4}, "exceeds 2^20 endpoints"},
		{DragonflyTopology, []int{4}, "dragonfly takes [routers, globals]"},
		{DragonflyTopology, []int{1, 1}, "need routers >= 2"},
		{Kind(99), []int{4}, "unknown topology"},
	}
	for _, c := range bad {
		err := DefaultConfig(c.kind, c.dims...).Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v %v: error %v, want it to mention %q", c.kind, c.dims, err, c.want)
		}
	}
	lanes := map[Kind][]int{
		MeshTopology:      {4, 4},
		TorusTopology:     {4, 4},
		HypercubeTopology: {4},
		FatTreeTopology:   {4, 2},
		DragonflyTopology: {4, 1},
	}
	for kind, dims := range lanes {
		cfg := DefaultConfig(kind, dims...)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v %v: %v", kind, dims, err)
		}
		if floor := cfg.Fabric().MinVirtualChannels(); cfg.VirtualChannels != floor {
			t.Errorf("%v: default %d lanes, fabric floor %d", kind, cfg.VirtualChannels, floor)
		}
		if floor := cfg.Fabric().MinVirtualChannels(); floor > 1 {
			cfg.VirtualChannels = floor - 1
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "virtual channels for deadlock freedom") {
				t.Errorf("%v below its lane floor: %v", kind, err)
			}
		}
	}
}
