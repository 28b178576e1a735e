// Package dist is the fault-tolerant distributed sweep layer: a
// lease-based coordinator/worker protocol (HTTP/JSON, standard library
// only) that partitions a sweep's RunSpecs across worker processes and is
// robust by construction.
//
// The coordinator hands out work as time-bounded leases. A leased spec
// whose lease expires — because the worker crashed, hung past its
// heartbeats, or lost the network — is re-enqueued, so no failure mode of
// a worker can strand work. Workers poll for leases, send heartbeats that
// extend their lease, and send the completed artifact back in the
// pipeline's artifact format (pipeline.MarshalArtifact, the disk cache
// entry's bytes). Duplicate
// completions from lease-expiry races are idempotent: artifacts are
// content-addressed by the spec's cache key and bit-identical by the
// determinism invariant, so whichever completion lands first wins and the
// loser is acknowledged as a duplicate.
//
// The coordinator side plugs into the run engine as a pipeline.Executor,
// which is what makes the distribution transparent: the engine's
// content-addressed cache (a restarted coordinator resumes from it),
// singleflight dedup and per-spec deadline apply to remote runs exactly
// as to local ones, and a distributed sweep's output is byte-identical
// to a local sequential run. A spec that fails on a worker fails for the
// sweep: the run is a pure function of its spec, so only a lost worker
// (an expired lease) earns a re-lease. The coordinator's own disk cache
// is the fleet's shared artifact store: the engine serves a finished
// spec from it without calling Execute, and stores every remote artifact
// there, so workers never see it.
//
// Worker RPCs go through the internal/resilience retry machinery: a
// refused, reset, or timed-out connection is transient (the coordinator
// may be restarting); a protocol version mismatch is a *ProtocolError and
// permanent. A worker dismissed with StatusDone detaches, and the
// coordinator serves until every worker it has seen has detached, so a
// lost dismissal is retried, not stranded. A lost worker is an event,
// not a failure: the coordinator emits flight-recorder events and
// commchar_dist_* metrics and moves the work elsewhere.
package dist

import (
	"fmt"
	"sync/atomic"

	"commchar/internal/obs"
)

// ProtoVersion is the coordinator/worker wire-protocol version. Every
// request carries it; a mismatch is rejected with a *ProtocolError, which
// the resilience taxonomy classifies as permanent — mixed-version fleets
// must fail loudly, not flake.
//
// Version 2: RunSpec gained Topology/Dims. An older worker would silently
// drop the fields from the leased spec and simulate the wrong fabric, so
// the skew must be fatal, not lossy.
//
// Version 3: LeaseResponse gained Store (the coordinator serves a shared
// blob store) and CompleteRequest gained StoreDegraded (the worker fell
// back from that store at least once). An older worker would ignore the
// store — correct but silently slower — and, worse, a v2 coordinator
// would drop the degradation report a v3 worker is owed an exit code
// for; the skew stays fatal.
//
// Version 4: CompleteRequest.Artifact became the zip-archive artifact
// serialization (base64 bytes) in place of embedded JSON. Either side of
// a v3/v4 skew would reject every completion of the other as
// undecodable and re-lease the work forever; the skew must be fatal.
//
// Still version 4: LeaseResponse.Store and CompleteRequest.StoreDegraded
// were removed when the shared store moved behind the coordinator. Both
// were omitempty, so either side of the skew stays correct: an older
// worker is never offered a store and reports no degradation, a newer
// worker ignores an older coordinator's store offer, and an older
// coordinator reads a newer worker's completions as not degraded, which
// is true of a worker without a store client. The coordinator's blob
// store itself was later folded into its disk cache; it was never on
// the wire.
//
// Still version 4: the omitempty FailRequest.Transient was removed (an
// older worker's transient report now fails its spec, as every run
// failure does) and POST /v1/detach was added (an older worker never
// detaches, so the coordinator waits out its drain bound; a newer worker
// ignores an older coordinator's 404).
//
// Still version 4: the push path, in which a coordinator attached a
// worker through the worker's own control server, was removed; a worker
// now reaches a coordinator only by joining (polling) it. Attach lived
// on the worker's server, not in the lease protocol, so no lease message
// changed: an older coordinator started with -workers fails at startup
// with a connection error, and a newer one never attaches.
//
// Still version 4: RunSpec lost its Width/Height fields; a 2-D mesh's
// shape is spelled with Dims. A leased spec is the spec's verbatim JSON,
// and no coordinator of any version sets Width/Height: sweepd and
// characterize -dist-listen never did, and meshsim, the one tool that
// did, never leases. So no lease message can carry the removed fields.
const ProtoVersion = 4

// DegradedError reports a sweep that completed — every artifact was
// produced and the output is byte-identical to a local run — but not at
// full fleet health: a straggler had to be rescued by a speculative
// re-lease. It implements the Degraded marker the CLI
// harness maps to exit code 3, so operators notice availability findings
// without diffing metrics.
type DegradedError struct {
	// Rescues counts hedged stragglers whose speculative re-lease
	// finished first.
	Rescues int64
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("dist: sweep completed degraded (%d stragglers rescued)", e.Rescues)
}

// Degraded marks the sweep as degraded-but-complete (see cli.ExitCode).
func (e *DegradedError) Degraded() bool { return true }

// ProtocolError reports a coordinator/worker protocol incompatibility
// (version skew, malformed envelope). It is permanent by construction:
// the same request will be rejected the same way.
type ProtocolError struct {
	Detail string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("dist: protocol error: %s", e.Detail)
}

// Metrics aggregates the coordinator's counters. All fields are updated
// atomically; RegisterWith exposes them as commchar_dist_* on the debug
// server's /metrics.
type Metrics struct {
	Enqueued       atomic.Int64 // specs submitted for distributed execution
	LeasesGranted  atomic.Int64 // leases handed to workers (includes re-grants)
	Heartbeats     atomic.Int64 // heartbeats accepted (lease extensions)
	LeaseExpiries  atomic.Int64 // leases that expired without completion
	WorkersLost    atomic.Int64 // lease expiries attributed to a lost worker
	Requeues       atomic.Int64 // specs re-enqueued after a lease expiry
	Completions    atomic.Int64 // artifacts accepted from workers
	Duplicates     atomic.Int64 // duplicate completions acknowledged idempotently
	RejectedWrites atomic.Int64 // artifact uploads that failed to decode
	RemoteFailures atomic.Int64 // specs failed permanently by a worker

	// Speculative re-lease counters.
	Speculations atomic.Int64 // hedge leases granted against suspected stragglers
	Rescues      atomic.Int64 // hedged specs whose hedge finished first
}

// RegisterWith exposes every counter through an obs registry under the
// commchar_dist_* namespace.
func (m *Metrics) RegisterWith(r *obs.Registry) {
	counter := func(name, help string, v *atomic.Int64) {
		r.CounterFunc("commchar_dist_"+name, help, v.Load)
	}
	counter("enqueued_total", "specs submitted for distributed execution", &m.Enqueued)
	counter("leases_granted_total", "leases handed to workers, re-grants included", &m.LeasesGranted)
	counter("heartbeats_total", "heartbeats accepted as lease extensions", &m.Heartbeats)
	counter("lease_expiries_total", "leases that expired without completion", &m.LeaseExpiries)
	counter("workers_lost_total", "lease expiries attributed to a lost worker", &m.WorkersLost)
	counter("requeues_total", "specs re-enqueued after a lease expiry", &m.Requeues)
	counter("completions_total", "artifacts accepted from workers", &m.Completions)
	counter("duplicates_total", "duplicate completions acknowledged idempotently", &m.Duplicates)
	counter("rejected_writes_total", "artifact uploads that failed to decode", &m.RejectedWrites)
	counter("remote_failures_total", "specs failed permanently by a worker", &m.RemoteFailures)
	counter("speculations_total", "hedge leases granted against suspected stragglers", &m.Speculations)
	counter("rescues_total", "hedged specs whose hedge finished first", &m.Rescues)
}
