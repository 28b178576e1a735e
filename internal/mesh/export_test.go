package mesh

// ComputeRouteLen runs computeRoute for the external tests and returns
// the path's length in links.
func (n *Network) ComputeRouteLen(src, dst int) int { return len(n.computeRoute(src, dst)) }

// MustRun is mustRun for the external tests.
var MustRun = mustRun

// LogOf records ds as completed deliveries, in the order given, on a
// network that has run nothing, and returns its Log. Their IDs must be a
// permutation of 1..len(ds), as Inject would have numbered them.
func LogOf(ds []Delivery) []Delivery {
	n := &Network{}
	for i := range ds {
		n.record(&ds[i])
	}
	return n.Log()
}
