package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"testing"

	"commchar/internal/resilience"
)

// degradedErr is a stand-in for pipeline.DegradedError (cli matches the
// marker structurally, so the test does not need the pipeline).
type degradedErr struct{ err error }

func (e *degradedErr) Error() string  { return "partial: " + e.err.Error() }
func (e *degradedErr) Unwrap() error  { return e.err }
func (e *degradedErr) Degraded() bool { return true }

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"clean", nil, ExitOK},
		{"help", flag.ErrHelp, ExitOK},
		{"usage", Usagef("-trace required"), ExitUsage},
		{"wrapped usage", errors.Join(errors.New("ctx"), Usagef("bad")), ExitUsage},
		{"runtime", errors.New("boom"), ExitFailure},
		{"panic", &resilience.PanicError{Value: "boom"}, ExitFailure},
		{"cancelled", context.Canceled, ExitCancelled},
		{"wrapped cancelled", fmt.Errorf("sweep: %w", context.Canceled), ExitCancelled},
		{"deadline", context.DeadlineExceeded, ExitFailure},
		{"degraded", &degradedErr{err: errors.New("2 of 7 failed")}, ExitDegraded},
		{"wrapped degraded", fmt.Errorf("experiments: %w", &degradedErr{err: errors.New("x")}), ExitDegraded},
		// An interrupted sweep is both degraded and cancelled; the
		// interruption wins (the partial results are an artifact of the
		// interrupt, not a finding).
		{"degraded by cancellation", &degradedErr{err: fmt.Errorf("run: %w", context.Canceled)}, ExitCancelled},
		// Usage beats everything: the run never started.
		{"usage and cancelled", errors.Join(Usagef("bad"), context.Canceled), ExitUsage},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestParseFlagsClassification(t *testing.T) {
	newSet := func() *flag.FlagSet {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 1, "")
		return fs
	}

	if err := ParseFlags(newSet(), []string{"-n", "3"}); err != nil {
		t.Fatalf("clean parse: %v", err)
	}
	var ue *UsageError
	if err := ParseFlags(newSet(), []string{"-no-such-flag"}); !errors.As(err, &ue) {
		t.Fatalf("unknown flag: expected UsageError, got %v", err)
	}
	if err := ParseFlags(newSet(), []string{"-n", "zebra"}); !errors.As(err, &ue) {
		t.Fatalf("bad value: expected UsageError, got %v", err)
	}
	// No tool takes a positional argument: one after the flags, or after
	// a "--", is a usage error naming it.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"samples.txt"}, `unexpected argument "samples.txt"`},
		{[]string{"-n", "3", "samples.txt", "-n", "4"}, `unexpected argument "samples.txt"`},
		{[]string{"--", "-n"}, `unexpected argument "-n"`},
	} {
		err := ParseFlags(newSet(), c.args)
		if !errors.As(err, &ue) || ue.Msg != c.want {
			t.Fatalf("%q: got %v, want the usage error %s", c.args, err, c.want)
		}
	}
	// -h must stay flag.ErrHelp so the tools still exit 0 on it.
	if err := ParseFlags(newSet(), []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: expected flag.ErrHelp, got %v", err)
	}
	if got := ExitCode(ParseFlags(newSet(), []string{"-h"})); got != ExitOK {
		t.Fatalf("-h exit = %d, want %d", got, ExitOK)
	}
}
