package pipeline

import (
	"errors"
	"fmt"
)

// SpecError is the typed per-spec failure: one run of the sweep that did
// not produce an artifact, after panic recovery. Under the
// continue policy it is what the sweep reports for the lost spec while
// every other spec's artifact survives.
type SpecError struct {
	Spec RunSpec
	Key  string
	Err  error
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("pipeline: %s: %v", e.Spec.Label(), e.Err)
}

func (e *SpecError) Unwrap() error { return e.Err }

// DegradedError reports a sweep that completed under the continue policy
// with partial success: some specs produced artifacts, some failed. It
// implements the Degraded marker the CLI harness maps to its own exit
// code, distinguishing a degraded run from a clean one and from a total
// failure.
type DegradedError struct {
	Failed, Total int
	Err           error // the joined per-spec failures
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("%d of %d runs failed: %v", e.Failed, e.Total, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// Degraded marks the sweep as partially successful (see cli.ExitCode).
func (e *DegradedError) Degraded() bool { return true }

// OnError is the sweep-level failure policy of RunAll.
type OnError int

const (
	// OnErrorContinue runs every spec regardless of failures and reports
	// the losses afterwards (a *DegradedError when any spec succeeded).
	// It is the default: one crashing spec costs only that spec.
	OnErrorContinue OnError = iota
	// OnErrorFail cancels the remaining specs at the first failure.
	OnErrorFail
)

func (p OnError) String() string {
	if p == OnErrorFail {
		return "fail"
	}
	return "continue"
}

// ParseOnError maps the -on-error flag values onto the policy.
func ParseOnError(s string) (OnError, error) {
	switch s {
	case "continue":
		return OnErrorContinue, nil
	case "fail":
		return OnErrorFail, nil
	}
	return OnErrorContinue, errors.New(`on-error policy must be "fail" or "continue"`)
}
