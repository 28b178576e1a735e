package mesh

// ComputeRouteLen runs computeRoute for the external tests and returns
// the path's length in links.
func (n *Network) ComputeRouteLen(src, dst int) int { return len(n.computeRoute(src, dst)) }

// MustRun is mustRun for the external tests.
var MustRun = mustRun

// LogOf records ds as completed deliveries, in the order given and with
// ds[i] injected in slot slots[i], on a network that has run nothing,
// and returns its Log. slots must be a permutation of 0..len(ds)-1.
func LogOf(slots []int, ds []Delivery) []Delivery {
	n := &Network{}
	for i := range ds {
		n.record(slots[i], &ds[i])
	}
	return n.Log()
}
