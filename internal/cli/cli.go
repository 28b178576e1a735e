// Package cli is the shared command-line harness of the cmd/ tools. Every
// tool implements run(ctx, args, stdout, stderr) error; this package wires
// SIGINT/SIGTERM into the context (first signal cancels cooperatively,
// second kills), maps the returned error onto the exit-code conventions,
// and converts panics escaping a tool into structured errors instead of
// raw crashes, so a broken sub-step degrades gracefully.
//
// Exit codes:
//
//	0    success (also -h/-help)
//	1    runtime failure — the tool produced no usable result
//	2    usage mistake (bad flag value, missing argument)
//	3    degraded success — a sweep under -on-error=continue completed
//	     with partial results (some specs failed, the rest are valid),
//	     or a distributed sweep completed at reduced fleet health (a
//	     straggler was rescued by its hedge)
//	130  cancelled — the run was interrupted (128 + SIGINT), after
//	     draining workers and flushing the cache
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"commchar/internal/resilience"
)

// Exit codes of the cmd/ tools (see the package comment).
const (
	ExitOK        = 0
	ExitFailure   = 1
	ExitUsage     = 2
	ExitDegraded  = 3
	ExitCancelled = 130
)

// UsageError marks a command-line mistake (bad flag value, missing
// argument); tools exit with ExitUsage on it.
type UsageError struct {
	Msg string
}

func (e *UsageError) Error() string { return e.Msg }

// Usagef builds a *UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{Msg: fmt.Sprintf(format, args...)}
}

// ParseFlags parses args with fs, classifying parse failures (unknown
// flag, malformed value) as usage errors; -h/-help passes through as
// flag.ErrHelp, which still exits 0.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return Usagef("%v", err)
	}
	return nil
}

// degraded is the marker interface of partial-success errors (see
// pipeline.DegradedError); defined structurally so cli does not import
// the pipeline.
type degraded interface{ Degraded() bool }

// ExitCode maps an error from run onto the process exit status (see the
// package comment for the table). Cancellation is checked before the
// degraded marker: a sweep cut short by SIGINT reports "interrupted", not
// "partially failed", even though both are true.
func ExitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return ExitOK
	}
	var ue *UsageError
	if errors.As(err, &ue) {
		return ExitUsage
	}
	if errors.Is(err, context.Canceled) {
		return ExitCancelled
	}
	var d degraded
	if errors.As(err, &d) && d.Degraded() {
		return ExitDegraded
	}
	return ExitFailure
}

// Main is the shared main() body: it installs the signal-cancelled
// context, runs the tool under the panic recovery boundary, reports the
// error, and exits with the conventional status. The first SIGINT or
// SIGTERM cancels the context — the tool drains its workers, flushes its
// cache, and returns context.Canceled (exit 130); a second signal
// reverts to the default handler and kills the process immediately. A *resilience.PanicError additionally dumps the captured
// stack.
func Main(name string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Restore default signal disposition once cancellation is under
		// way, so an impatient second Ctrl-C still works.
		stop()
	}()

	err := resilience.Protect(func() error {
		return run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	})
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		var pe *resilience.PanicError
		if errors.As(err, &pe) {
			os.Stderr.Write(pe.Stack)
		}
	}
	os.Exit(ExitCode(err))
}
