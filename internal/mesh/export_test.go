package mesh

// ComputeRouteLen runs computeRoute for the external tests and returns
// the path's length in links.
func (n *Network) ComputeRouteLen(src, dst int) int { return len(n.computeRoute(src, dst)) }

// MustRun is mustRun for the external tests.
var MustRun = mustRun
