package mesh

import "fmt"

// hypercube is the binary d-cube with e-cube (dimension-order) routing:
// port d flips address bit d. E-cube resolves bits lowest-first, which
// orders channel use by dimension and keeps single-lane wormhole routing
// deadlock-free.
type hypercube struct {
	dimensions int
}

func (t *hypercube) Name() string            { return fmt.Sprintf("hypercube%dd", t.dimensions) }
func (t *hypercube) Nodes() int              { return 1 << t.dimensions }
func (t *hypercube) Endpoints() int          { return 1 << t.dimensions }
func (t *hypercube) Degree(node int) int     { return t.dimensions }
func (t *hypercube) MinVirtualChannels() int { return 1 }

func (t *hypercube) Neighbor(node, port int) int { return node ^ (1 << port) }

func (t *hypercube) Route(path []Step, src, dst int) []Step {
	cur := src
	for d := 0; d < t.dimensions; d++ {
		if (cur^dst)&(1<<d) != 0 {
			path = append(path, Step{Port: d, Lane: LaneAny})
			cur ^= 1 << d
		}
	}
	return path
}
