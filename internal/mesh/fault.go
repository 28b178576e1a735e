package mesh

import (
	"fmt"
	"strings"

	"commchar/internal/sim"
)

// LinkFault is the fault state of one directed physical link at one
// instant, as reported by an Injector.
type LinkFault struct {
	// Down marks the link unusable right now. A worm that needs it is
	// killed and the message retransmitted from the source after backoff
	// (transient outage), or rerouted around it (permanent failure).
	Down bool
	// Permanent marks a Down link as never recovering, which makes the
	// network reroute deterministically around it instead of retrying.
	Permanent bool
	// SlowFactor >= 2 multiplies the per-hop flit time on a degraded link.
	// 0 and 1 both mean full speed.
	SlowFactor int
}

// Injector is the fault-injection hook consulted by the network on every
// hop and delivery. Implementations must be deterministic functions of
// their arguments (plus any fixed seed) so that equal-seed runs produce
// byte-identical delivery logs. internal/fault provides the standard
// schedule-driven implementation.
type Injector interface {
	// LinkFault reports the state of link from->to at time now.
	LinkFault(from, to int, now sim.Time) LinkFault
	// Drop reports whether this traversal (message, retransmission
	// attempt, hop index) is lost in transit.
	Drop(msgID int64, attempt, hop, from, to int, now sim.Time) bool
	// Corrupt reports whether this attempt arrives length-corrupted at
	// the destination, forcing a retransmission.
	Corrupt(msgID int64, attempt int, now sim.Time) bool
}

// FaultFlags records, per delivery, which fault classes the message
// encountered on its way through the fabric, so characterization can
// separate faulted from clean traffic.
type FaultFlags uint8

const (
	// FaultDropped: at least one traversal was dropped in transit.
	FaultDropped FaultFlags = 1 << iota
	// FaultCorrupted: an attempt arrived length-corrupted and was
	// retransmitted.
	FaultCorrupted
	// FaultLinkDown: the worm met a transiently-down link and retried.
	FaultLinkDown
	// FaultSlowed: the worm crossed at least one degraded link.
	FaultSlowed
	// FaultRerouted: the path was recomputed around a permanent failure.
	FaultRerouted
	// FaultPartitioned: no route to the destination existed; the message
	// failed with ErrPartitioned.
	FaultPartitioned
)

func (f FaultFlags) String() string {
	if f == 0 {
		return "clean"
	}
	var parts []string
	for _, fl := range []struct {
		bit  FaultFlags
		name string
	}{
		{FaultDropped, "dropped"},
		{FaultCorrupted, "corrupted"},
		{FaultLinkDown, "linkdown"},
		{FaultSlowed, "slowed"},
		{FaultRerouted, "rerouted"},
		{FaultPartitioned, "partitioned"},
	} {
		if f&fl.bit != 0 {
			parts = append(parts, fl.name)
		}
	}
	return strings.Join(parts, "|")
}

// DeliveryStatus distinguishes messages that reached their destination
// from messages the network gave up on.
type DeliveryStatus uint8

const (
	// StatusDelivered: the tail flit reached the destination.
	StatusDelivered DeliveryStatus = iota
	// StatusFailed: retransmissions were exhausted or the destination was
	// unreachable; End is the give-up time.
	StatusFailed
)

// ErrPartitioned is the structured error recorded when a message cannot
// reach its destination because permanent link failures disconnected the
// fabric between them.
type ErrPartitioned struct {
	MsgID    int64
	Src, Dst int
	At       int // node where the worm ran out of routes
	Time     sim.Time
}

func (e *ErrPartitioned) Error() string {
	return fmt.Sprintf("mesh: message %d (%d->%d) partitioned at node %d, t=%d",
		e.MsgID, e.Src, e.Dst, e.At, e.Time)
}

// ErrExhausted is the structured error recorded when a message used up its
// retransmission budget without being delivered.
type ErrExhausted struct {
	MsgID    int64
	Src, Dst int
	Retries  int
	Time     sim.Time
}

func (e *ErrExhausted) Error() string {
	return fmt.Sprintf("mesh: message %d (%d->%d) dropped after %d retransmissions, t=%d",
		e.MsgID, e.Src, e.Dst, e.Retries, e.Time)
}

// ErrCancelled is the structured error recorded when a worm gave up
// because the run's context was cancelled: the message was abandoned by
// the shutdown, not lost to a fault.
type ErrCancelled struct {
	MsgID    int64
	Src, Dst int
	Retries  int
	Time     sim.Time
}

func (e *ErrCancelled) Error() string {
	return fmt.Sprintf("mesh: message %d (%d->%d) abandoned by cancellation after %d retransmissions, t=%d",
		e.MsgID, e.Src, e.Dst, e.Retries, e.Time)
}
