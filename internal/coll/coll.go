// Package coll characterizes collective communication and asynchronicity:
// the two attributes the 1997 paper's point-to-point methodology dissolves
// into anonymous messages. It reassembles a static-strategy delivery log
// into collective *instances* using the negative-tag-space blocks that
// internal/mp reserves per collective call, fits a pLogP-style analytic
// span model per (operation, algorithm) in the tradition of
// Barchet-Estefanel & Mounié, and derives an idle-wave/desynchronization
// report from exactly reconstructed per-rank simulated-time timelines in
// the tradition of Afzal et al.
//
// Extraction is exact, not heuristic: replayed ranks are sequential, so a
// rank's deliveries in message-ID order are its trace sends in program
// order, which recovers every message's tag (the delivery log itself does
// not carry tags). The reconstruction is validated against the log — every
// recomputed injection time must equal the logged one — so the idle and
// wait figures are the replay's own, not a model's.
package coll

import (
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

// Instance is one reassembled collective call: every rank's events in one
// collective tag block, across the whole machine.
type Instance struct {
	// Seq is the global collective sequence number (the tag block):
	// SPMD ranks execute collectives in identical order, so the same
	// block names the same call site on every rank.
	Seq int
	// Op and Algorithm name what ran ("bcast"/"binomial", ...); Shape is
	// the fan-out shape ("star-out", "binomial-tree", "pairwise-ring",
	// "gather-release", "star-in").
	Op        string
	Algorithm string
	Shape     string
	// Root is the rooted operation's root rank; -1 for rootless ops.
	Root int
	// Ranks is the number of participating ranks; Depth the serial
	// message depth of the fan-out shape (the pLogP "S").
	Ranks int
	Depth int
	// Messages and Bytes count the network traffic of this instance;
	// MsgBytes is the per-message payload and Regime its size class
	// (ctl / small / medium / large).
	Messages int
	MsgBytes int
	Bytes    int64
	Regime   string
	// Composite labels fused patterns: a reduce immediately followed by
	// a broadcast of the same root and size is an "allreduce" pair.
	Composite string `json:",omitempty"`

	// Start is the earliest rank entry into the call, End the latest
	// rank exit, Span their difference.
	Start sim.Time
	End   sim.Time
	Span  sim.Duration
	// Desync is the spread of rank entry times (max-min): how
	// desynchronized the machine already was when the collective began.
	// DesyncIndex normalizes it by the span.
	Desync      sim.Duration
	DesyncIndex float64
	// WaveNSPerRank is the idle-wave propagation slope: the fitted rate
	// (ns per rank index) at which the entry front sweeps across ranks,
	// with WaveR2 its goodness of fit. 0/0 when fewer than 3 ranks
	// participate.
	WaveNSPerRank float64
	WaveR2        float64
}

// OpModel is the fitted pLogP-style span model of one (operation,
// algorithm) group: Span ≈ L + O·S + G·S·m, where S is the shape's
// serial message depth and m the per-message payload bytes. Within one
// run the machine size is fixed, so S is often constant per group; the
// fit then drops the unidentifiable column and L absorbs O·S (the
// reported O is 0). Validated the same way the SP2 overhead model is:
// R² plus per-instance relative error against the measured spans.
type OpModel struct {
	Op        string
	Algorithm string
	// Count, Messages, Bytes aggregate the group's instances.
	Count    int
	Messages int
	Bytes    int64
	// MeanSpanNS is the mean measured span.
	MeanSpanNS float64
	// L (latency floor, ns), O (per-step overhead, ns), G (per-byte gap,
	// ns/byte) are the fitted coefficients; dropped columns report 0.
	L, O, G float64
	// R2, MeanRelErr, MaxRelErr measure model-vs-measured agreement over
	// the group's instances.
	R2         float64
	MeanRelErr float64
	MaxRelErr  float64
}

// RankActivity is one rank's reconstructed time budget over the run.
type RankActivity struct {
	Rank int
	// BusyNS is traced computation, OverheadNS communication-software
	// overhead, IdleNS time blocked in receives waiting for data.
	BusyNS     int64
	OverheadNS int64
	IdleNS     int64
	// FinishNS is when the rank's replay finished; Waits counts the
	// receives that actually blocked.
	FinishNS int64
	Waits    int
	// IdleFraction is IdleNS over the run's makespan.
	IdleFraction float64
}

// IdleReport is the asynchronicity summary: per-rank idle budgets plus
// desynchronization aggregates over collective instances.
type IdleReport struct {
	PerRank []RankActivity
	// MeanIdleFraction / MaxIdleFraction aggregate PerRank.
	MeanIdleFraction float64
	MaxIdleFraction  float64
	// MeanDesyncIndex averages the per-instance desynchronization
	// indices; MeanAbsWaveNSPerRank the |slope| of instances whose
	// entry front fits a wave (3+ ranks).
	MeanDesyncIndex      float64
	MeanAbsWaveNSPerRank float64
}

// Characterization is the collective/asynchronicity characterization of
// one static-strategy run. It rides inside core.Characterization, so it
// serializes through the artifact codec (cache, wire and store alike)
// unchanged.
type Characterization struct {
	Ranks   int
	Elapsed sim.Time
	// Messages/Bytes count the deliveries attributed to collectives;
	// PointToPoint the remaining application point-to-point messages.
	Messages     int
	Bytes        int64
	PointToPoint int

	Instances []Instance
	PerOp     []OpModel
	Idle      IdleReport
}

// Regime classifies a per-message payload size: control (<64B), small
// (<1KiB), medium (<64KiB), large.
func Regime(bytes int) string {
	switch {
	case bytes < 64:
		return "ctl"
	case bytes < 1024:
		return "small"
	case bytes < 64*1024:
		return "medium"
	default:
		return "large"
	}
}

// Analyze reassembles the run's collective instances from its trace and
// delivery log, fits the per-op span models, and derives the idle-wave
// report. cost must be the replay's software-overhead model (nil for
// ZeroCost); the reconstruction asserts exactness against the log and
// errors on any drift. A nil trace or one without collective tags (a
// foreign or purely point-to-point trace) yields (nil, nil).
func Analyze(tr *trace.Trace, log []mesh.Delivery, cost trace.CostModel, elapsed sim.Time) (*Characterization, error) {
	if tr == nil || !hasCollectiveTags(tr) {
		return nil, nil
	}
	rec, err := reconstruct(tr, log, cost)
	if err != nil {
		return nil, err
	}
	c := &Characterization{
		Ranks:        tr.Ranks,
		Elapsed:      elapsed,
		Messages:     rec.collMsgs,
		Bytes:        rec.collBytes,
		PointToPoint: len(log) - rec.collMsgs,
		Instances:    rec.instances(),
	}
	fuseComposites(c.Instances)
	c.PerOp = fitModels(c.Instances)
	c.Idle = idleReport(rec.ranks, c.Instances, elapsed)
	return c, nil
}
