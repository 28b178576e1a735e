// Package dist is the fix-engine golden fixture for obsconv: metric
// names are renamed to convention and a redundant nil guard around a
// NilSafe type (fact imported from obsconv/internal/obs) is dropped.
package dist

import "obsconv/internal/obs"

// Register wires up the sweep metrics.
func Register(r *obs.Registry) {
	r.CounterFunc("commchar_dist_renewals", "lease renewals", nil)
	r.Gauge("commcharDistDepth", "queue depth")
}

// Emit forwards to the observer.
func Emit(o *obs.Observer) {
	if o != nil {
		o.Emit()
	}
}
