package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"commchar/internal/resilience"
)

// TestSweepContinuesPastFailures: a sweep with one erroring and one
// panicking step still emits every other step's output, and reports the
// failures in an aggregated structured error.
func TestSweepContinuesPastFailures(t *testing.T) {
	steps := []Step{
		{Name: "ok-1", Key: "ok-1", Run: func(w io.Writer) error {
			fmt.Fprintln(w, "result one")
			return nil
		}},
		{Name: "bad-config", Key: "bad-config", Run: func(w io.Writer) error {
			return errors.New("invalid configuration: 0 processors")
		}},
		{Name: "panics", Key: "panics", Run: func(w io.Writer) error {
			panic("index out of range")
		}},
		{Name: "ok-2", Key: "ok-2", Run: func(w io.Writer) error {
			fmt.Fprintln(w, "result two")
			return nil
		}},
	}
	var buf bytes.Buffer
	err := RunSteps(context.Background(), &buf, steps, false)

	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("expected SweepError, got %v", err)
	}
	if len(se.Failed) != 2 || se.Total != 4 {
		t.Fatalf("wrong tally: %+v", se)
	}
	if se.Failed[0].Name != "bad-config" || se.Failed[1].Name != "panics" {
		t.Fatalf("wrong failed steps: %+v", se.Failed)
	}
	var pe *resilience.PanicError
	if !errors.As(se.Failed[1].Err, &pe) {
		t.Fatalf("panic not converted to PanicError: %v", se.Failed[1].Err)
	}
	out := buf.String()
	// Both healthy steps ran to completion, including the one after the
	// panic, and the failures are visible inline.
	for _, want := range []string{"result one", "result two", "invalid configuration", "FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	msg := err.Error()
	if !strings.Contains(msg, "2 of 4 steps failed") {
		t.Errorf("aggregate message wrong: %s", msg)
	}
}

// TestSweepCleanRunReturnsNil: no failures, no error.
func TestSweepCleanRunReturnsNil(t *testing.T) {
	var buf bytes.Buffer
	err := RunSteps(context.Background(), &buf, []Step{
		{Name: "only", Key: "only", Run: func(w io.Writer) error { return nil }},
	}, false)
	if err != nil {
		t.Fatalf("clean sweep errored: %v", err)
	}
}
