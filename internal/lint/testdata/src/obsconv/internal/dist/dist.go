// Package dist is the obsconv consuming-side fixture: metric naming at
// Registry call sites and redundant nil guards around calls on the
// exported types of internal/obs, which are nil-safe.
package dist

import "obsconv/internal/obs"

// Register wires up the sweep metrics.
func Register(r *obs.Registry, shard string, byWorker *obs.CounterVec) {
	r.CounterFunc("commchar_dist_leases_total", "leases granted", nil)
	r.CounterFunc("commchar_dist_renewals", "lease renewals", nil) // want "obsconv: counter \"commchar_dist_renewals\" must end in _total"
	r.Gauge("commcharDistDepth", "queue depth")                    // want "obsconv: metric name \"commcharDistDepth\" violates the commchar_\\* snake_case convention"
	r.Gauge("dist_workers", "live workers")                        // want "obsconv: metric name \"dist_workers\" violates the commchar_\\* snake_case convention"
	r.Histogram("commchar_dist_latency_seconds", "lease latency")
	r.CounterFunc("commchar_dist_"+shard+"_total", "per-shard grants", nil)
	r.Gauge(shard+"_depth", "per-shard depth") // want "obsconv: dynamic metric name in Gauge"
	r.CounterVec("commchar_dist_grants_total", "grants per worker", "worker", byWorker)
	r.CounterVec("commchar_dist_by_worker_total", "per-worker grants", shard, byWorker) // want "obsconv: dynamic label name in CounterVec"
	r.CounterVec("commchar_dist_hedges", "hedges per worker", "worker", byWorker)       // want "obsconv: counter \"commchar_dist_hedges\" must end in _total"
}

// Legacy keeps a pre-convention name until the dashboards migrate.
func Legacy(r *obs.Registry) {
	//lint:allow obsconv the legacy dashboard still queries this name; migrating next release
	r.CounterFunc("legacy_hits", "hits on the legacy endpoint", nil)
}

// Emit forwards to the observer, guarding out of habit.
func Emit(o *obs.Observer) {
	if o != nil { // want "obsconv: redundant nil guard: \\*Observer is nil-safe"
		o.Emit()
	}
}

// EmitRight trusts the seam.
func EmitRight(o *obs.Observer) {
	o.Emit()
}

// Reset guards and does extra work: the guard is load-bearing here.
func Reset(o *obs.Observer, n *int) {
	if o != nil {
		o.Emit()
		*n = 0
	}
}
