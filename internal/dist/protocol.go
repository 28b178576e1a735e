package dist

import "encoding/json"

// The wire protocol is five worker→coordinator POSTs plus a state
// snapshot, all JSON over HTTP:
//
//	POST /v1/lease      LeaseRequest     → LeaseResponse
//	POST /v1/heartbeat  HeartbeatRequest → HeartbeatResponse
//	POST /v1/complete   CompleteRequest  → CompleteResponse
//	POST /v1/fail       FailRequest      → FailResponse
//	POST /v1/detach     DetachRequest    → {}
//	GET  /v1/state      —                → State
//
// Every request carries V (ProtoVersion); a mismatch is answered with
// HTTP 400 and an errorResponse whose Code is "version-mismatch", which
// the client surfaces as a permanent *ProtocolError. Since version 4 a
// completion carries the artifact as opaque bytes (base64 in the JSON):
// the zip archive that is also the disk cache entry.

// Lease statuses returned by /v1/lease.
const (
	// StatusLease means the response carries a lease: run Spec, report
	// against ID, and heartbeat before LeaseMS elapses.
	StatusLease = "lease"
	// StatusWait means nothing is pending right now; poll again.
	StatusWait = "wait"
	// StatusDone means the sweep is finished; the worker may disconnect.
	StatusDone = "done"
)

// LeaseRequest asks the coordinator for one unit of work.
type LeaseRequest struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
}

// LeaseResponse grants a lease (StatusLease), asks the worker to poll
// again (StatusWait), or dismisses it (StatusDone).
type LeaseResponse struct {
	Status string `json:"status"`
	// ID names the leased item in heartbeats and reports. IDs are
	// per-coordinator-process; the durable identity of the work is Key.
	ID uint64 `json:"id,omitempty"`
	// Spec is the pipeline.RunSpec to execute, verbatim JSON.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Key is the spec's content-addressed cache key; completions are
	// deduplicated on it.
	Key string `json:"key,omitempty"`
	// LeaseMS is the lease duration in milliseconds: the worker must
	// complete or heartbeat within it or the work is re-enqueued.
	LeaseMS int64 `json:"lease_ms,omitempty"`
}

// HeartbeatRequest extends the sender's lease on item ID.
type HeartbeatRequest struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
	ID     uint64 `json:"id"`
}

// HeartbeatResponse acknowledges a heartbeat. Abandon is set when the
// lease is no longer held (it expired and was re-granted, or the item
// already finished): the worker should cancel the run and drop the
// result rather than racing the new holder.
type HeartbeatResponse struct {
	Abandon bool `json:"abandon,omitempty"`
}

// CompleteRequest delivers a finished artifact.
type CompleteRequest struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
	ID     uint64 `json:"id"`
	Key    string `json:"key"`
	// Artifact is the artifact's serialization (pipeline.MarshalArtifact):
	// a zip archive, base64 in the JSON body, byte for byte the entry the
	// coordinator's engine stores in its disk cache.
	Artifact []byte `json:"artifact"`
}

// CompleteResponse acknowledges an artifact. Duplicate reports that the
// work was already complete (a lease-expiry race); the upload was
// discarded idempotently and the worker owes nothing further.
type CompleteResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
}

// FailRequest reports that a leased spec failed on the worker. The
// failure is final: a run is a pure function of its spec, so the spec
// fails for the whole sweep.
type FailRequest struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
	ID     uint64 `json:"id"`
	Error  string `json:"error"`
}

// FailResponse acknowledges a failure report.
type FailResponse struct {
	Acked bool `json:"acked"`
}

// DetachRequest says goodbye: the worker was answered StatusDone and
// will not poll again. The coordinator keeps serving until every worker
// it has seen detaches (or its drain bound runs out), so a worker whose
// StatusDone answer was lost can poll again and still be dismissed.
type DetachRequest struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
}

// errorResponse is the body of every non-2xx coordinator answer.
type errorResponse struct {
	Error string `json:"error"`
	// Code is a machine-readable discriminator; "version-mismatch" marks
	// the permanent protocol rejection.
	Code string `json:"code,omitempty"`
}

// codeVersionMismatch marks an errorResponse caused by protocol skew.
const codeVersionMismatch = "version-mismatch"

// ItemState is one work item in a State snapshot.
type ItemState struct {
	ID       uint64 `json:"id"`
	Spec     string `json:"spec"`
	Key      string `json:"key"`
	State    string `json:"state"` // pending | leased | done | failed
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
	// Hedge is the speculative re-lease holder while a straggler is
	// hedged (or "pending" while the hedge waits for an idle worker).
	Hedge string `json:"hedge,omitempty"`
	Err   string `json:"error,omitempty"`
}

// State is the coordinator's queue snapshot (GET /v1/state, and the
// /distz debug page).
type State struct {
	Finished bool        `json:"finished"`
	Pending  int         `json:"pending"`
	Leased   int         `json:"leased"`
	Done     int         `json:"done"`
	Failed   int         `json:"failed"`
	Items    []ItemState `json:"items"`
}
