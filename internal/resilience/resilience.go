// Package resilience is the failure-semantics layer under the run
// pipeline: a panic-recovery boundary, a retryable-error taxonomy, and a
// deterministic retry policy with exponential backoff and jitter.
//
// The taxonomy splits failures into two classes. Transient failures — a
// refused, reset or timed-out connection — are worth retrying, and the
// distributed sweep's RPC client does. Everything else is Permanent: a
// run is a pure function of its spec, so a simulation error reproduces,
// and a panic, a protocol rejection or a cancellation must not be fought.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"syscall"
)

// PanicError is a panic converted into an error at a recovery boundary. It
// keeps the panic value and the stack of the panicking goroutine so the
// failure stays diagnosable after recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal error: panic: %v", e.Value)
}

// Protect runs fn, converting a panic into a *PanicError. It is the
// recovery boundary the tools and the run pipeline wrap around sub-steps
// so one failing step cannot take down the whole process.
func Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Class partitions failures by whether a retry can plausibly succeed.
type Class int

const (
	// Permanent failures reproduce deterministically (or must not be
	// retried at all, like cancellation); retrying wastes work.
	Permanent Class = iota
	// Transient failures come from the network — a worker restarting,
	// a coordinator rebinding — and may clear.
	Transient
)

func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "permanent"
}

// transientMark wraps an error explicitly classified as transient.
type transientMark struct{ err error }

func (t *transientMark) Error() string { return t.err.Error() }
func (t *transientMark) Unwrap() error { return t.err }

// MarkTransient explicitly classifies err as transient; Classify honours
// the mark through any amount of wrapping. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientMark{err: err}
}

// Classify places an error in the retry taxonomy:
//
//   - cancellation and deadline expiry are Permanent (the caller asked us
//     to stop; retrying would fight the context);
//   - panics are Permanent (a bug reproduces deterministically);
//   - errors wrapped by MarkTransient are Transient;
//   - network errors are Transient: a refused or reset connection, a
//     dial or read timeout (*net.OpError, net.Error with Timeout, the
//     ECONNREFUSED/ECONNRESET/EPIPE sentinels), a closed connection
//     (net.ErrClosed), and a short body (io.ErrUnexpectedEOF) all come
//     from the environment — a worker restarting, a coordinator
//     rebinding — and clear on retry. A protocol-level rejection (for
//     example dist's version mismatch) is a plain error and therefore
//     Permanent: the same request will be rejected the same way.
//
// Everything else is Permanent.
func Classify(err error) Class {
	if err == nil {
		return Permanent
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Permanent
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return Permanent
	}
	var tm *transientMark
	if errors.As(err, &tm) {
		return Transient
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return Transient
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return Transient
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return Transient
	}
	return Permanent
}
