package pipeline

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"commchar/internal/obs"
	"commchar/internal/report"
)

// Metrics aggregates the engine's per-stage counters and timings. All
// fields are updated atomically, so concurrent runs share one Metrics.
type Metrics struct {
	Runs       atomic.Int64 // simulations actually executed
	MemoryHits atomic.Int64 // served from the in-memory artifact cache
	DiskHits   atomic.Int64 // served from the on-disk cache
	DedupHits  atomic.Int64 // callers that piggybacked on an identical in-flight run

	Faulted atomic.Int64 // delivered messages touched by injected faults
	Failed  atomic.Int64 // messages that were never delivered

	SimEvents atomic.Int64 // simulation events fired across executed runs
	SimTimeNS atomic.Int64 // simulated time accumulated across executed runs

	AcquireNS atomic.Int64 // wall time in the acquire stage (app execution)
	ReplayNS  atomic.Int64 // wall time in the log stage (trace replay)
	AnalyzeNS atomic.Int64 // wall time in the analyze stage (fitting)

	DiskStoreErrors atomic.Int64 // best-effort cache writes that failed
	DiskCorrupt     atomic.Int64 // cache entries present but unreadable or undecodable

	RemoteRuns atomic.Int64 // specs executed through the remote executor
	RemoteNS   atomic.Int64 // wall time waiting on remote executions

	Panics       atomic.Int64 // worker panics contained by the recovery boundary
	Cancelled    atomic.Int64 // runs stopped by cancellation or a deadline
	SpecFailures atomic.Int64 // specs that produced no artifact

	// Per-topology accounting, keyed by the interconnect family that a run
	// actually simulated on ("mesh", "torus", "hypercube", "fattree",
	// "dragonfly"). Exported as labeled commchar_mesh_* counter families;
	// absent from the text Summary so its byte layout stays stable.
	topoRuns, topoMsgs, topoSimNS obs.CounterVec

	// Per-collective-op accounting, keyed by "op/algorithm" (e.g.
	// "bcast/binomial") as characterized by internal/coll. Exported as
	// labeled commchar_coll_* counter families; absent from the text
	// Summary so its byte layout stays stable.
	collInsts, collMsgs, collBytes obs.CounterVec
}

// Summary renders the counters as a report table: the pipeline's per-run
// summary of what executed, what was cached, and where the time went.
func (m *Metrics) Summary() *report.Table {
	t := &report.Table{
		Title:   "Pipeline summary",
		Columns: []string{"Counter", "Value"},
	}
	ms := func(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e6) }
	t.AddRow("runs executed", fmt.Sprintf("%d", m.Runs.Load()))
	t.AddRow("cache hits (memory)", fmt.Sprintf("%d", m.MemoryHits.Load()))
	t.AddRow("cache hits (disk)", fmt.Sprintf("%d", m.DiskHits.Load()))
	t.AddRow("dedup hits", fmt.Sprintf("%d", m.DedupHits.Load()))
	t.AddRow("faulted messages", fmt.Sprintf("%d", m.Faulted.Load()))
	t.AddRow("failed deliveries", fmt.Sprintf("%d", m.Failed.Load()))
	t.AddRow("total sim events", fmt.Sprintf("%d", m.SimEvents.Load()))
	t.AddRow("total sim time (ms)", ms(m.SimTimeNS.Load()))
	t.AddRow("acquire wall (ms)", ms(m.AcquireNS.Load()))
	t.AddRow("replay wall (ms)", ms(m.ReplayNS.Load()))
	t.AddRow("analyze wall (ms)", ms(m.AnalyzeNS.Load()))
	// Resilience counters appear only when something went wrong, so the
	// summary of a clean run is unchanged from older versions and
	// byte-stable across cold and warm cache states.
	if n := m.RemoteRuns.Load(); n > 0 {
		t.AddRow("remote runs", fmt.Sprintf("%d", n))
		t.AddRow("remote wall (ms)", ms(m.RemoteNS.Load()))
	}
	if n := m.DiskStoreErrors.Load(); n > 0 {
		t.AddRow("disk store errors", fmt.Sprintf("%d", n))
	}
	if n := m.DiskCorrupt.Load(); n > 0 {
		t.AddRow("corrupt cache entries", fmt.Sprintf("%d", n))
	}
	if n := m.Panics.Load(); n > 0 {
		t.AddRow("worker panics", fmt.Sprintf("%d", n))
	}
	if n := m.Cancelled.Load(); n > 0 {
		t.AddRow("cancelled runs", fmt.Sprintf("%d", n))
	}
	if n := m.SpecFailures.Load(); n > 0 {
		t.AddRow("failed specs", fmt.Sprintf("%d", n))
	}
	// Collective rows appear only when an executed run carried collective
	// traffic, keeping pre-collectives summaries byte-stable.
	if insts := m.collInsts.Snapshot(); len(insts) > 0 {
		var total int64
		keys := make([]string, 0, len(insts))
		for k := range insts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			total += insts[k]
		}
		t.AddRow("collective instances", fmt.Sprintf("%d", total))
		t.AddRow("collective ops", strings.Join(keys, " "))
	}
	return t
}

// Render writes the summary table.
func (m *Metrics) Render(w io.Writer) { m.Summary().Render(w) }

// RegisterWith exposes every counter through an obs registry under the
// commchar_pipeline_* namespace (Prometheus on /metrics, JSON on /varz).
// The registrations read the live atomics and label families at scrape
// time, so the counters have one store.
func (m *Metrics) RegisterWith(r *obs.Registry) {
	counter := func(name, help string, v *atomic.Int64) {
		r.CounterFunc("commchar_pipeline_"+name, help, v.Load)
	}
	counter("runs_total", "simulations actually executed", &m.Runs)
	counter("cache_hits_memory_total", "artifacts served from the in-memory cache", &m.MemoryHits)
	counter("cache_hits_disk_total", "artifacts served from the on-disk cache", &m.DiskHits)
	counter("dedup_hits_total", "callers that piggybacked on an identical in-flight run", &m.DedupHits)
	counter("faulted_messages_total", "delivered messages touched by injected faults", &m.Faulted)
	counter("failed_deliveries_total", "messages that were never delivered", &m.Failed)
	counter("sim_events_total", "simulation events fired across executed runs", &m.SimEvents)
	counter("sim_time_ns_total", "simulated time accumulated across executed runs", &m.SimTimeNS)
	counter("acquire_ns_total", "wall time spent in the acquire stage", &m.AcquireNS)
	counter("replay_ns_total", "wall time spent in the log (replay) stage", &m.ReplayNS)
	counter("analyze_ns_total", "wall time spent in the analyze stage", &m.AnalyzeNS)
	counter("remote_runs_total", "specs executed through the remote executor", &m.RemoteRuns)
	counter("remote_ns_total", "wall time spent waiting on remote executions", &m.RemoteNS)
	counter("disk_store_errors_total", "best-effort cache writes that failed", &m.DiskStoreErrors)
	counter("cache_corrupt_total", "cache entries present but unreadable or undecodable, rerun as misses", &m.DiskCorrupt)
	counter("panics_total", "worker panics contained by the recovery boundary", &m.Panics)
	counter("cancelled_total", "runs stopped by cancellation or a deadline", &m.Cancelled)
	counter("spec_failures_total", "specs that produced no artifact", &m.SpecFailures)
	r.CounterVec("commchar_mesh_runs_total",
		"simulations executed per interconnect topology", "topology", &m.topoRuns)
	r.CounterVec("commchar_mesh_messages_total",
		"network-log messages recorded per interconnect topology", "topology", &m.topoMsgs)
	r.CounterVec("commchar_mesh_sim_time_ns_total",
		"simulated time accumulated per interconnect topology", "topology", &m.topoSimNS)
	r.CounterVec("commchar_coll_instances_total",
		"collective instances characterized per op/algorithm", "op", &m.collInsts)
	r.CounterVec("commchar_coll_messages_total",
		"collective messages attributed per op/algorithm", "op", &m.collMsgs)
	r.CounterVec("commchar_coll_bytes_total",
		"collective payload bytes attributed per op/algorithm", "op", &m.collBytes)
}
