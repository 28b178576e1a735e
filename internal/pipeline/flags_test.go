package pipeline

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commchar/internal/cli"
)

// TestDisabledFlagsYieldNilObserver: with every observability flag off
// the flags build the nil observer (the documented no-op) and an engine
// it observes, and nothing reaches stderr, at build time or at Close.
func TestDisabledFlagsYieldNilObserver(t *testing.T) {
	var stderr bytes.Buffer
	f := &Flags{OnError: "continue"}
	if o, err := f.Observer(&stderr); o != nil || err != nil {
		t.Errorf("zero Flags: Observer = %v, %v; want nil, nil", o, err)
	}
	if _, err := f.Engine(&stderr); err != nil {
		t.Fatal(err)
	}
	if f.ob != nil {
		t.Errorf("zero Flags: Engine built observer %v", f.ob)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("disabled flags wrote to stderr: %q", stderr.String())
	}
}

// TestFlagsParseEveryToolFlag: AddFlags registers the nine shared flags
// and Observer builds one observer, however often it is asked.
func TestFlagsParseEveryToolFlag(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := AddFlags(fs)
	err := fs.Parse([]string{"-parallel", "3", "-cache-dir", dir, "-on-error", "fail",
		"-spec-timeout", "2s", "-debug-addr", "127.0.0.1:0",
		"-trace-out", filepath.Join(dir, "t.json"), "-events-out", filepath.Join(dir, "e.jsonl"),
		"-progress", "-metrics"})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 9 {
		t.Fatalf("AddFlags registered %d flags, want 9", n)
	}
	var stderr bytes.Buffer
	ob, err := f.Observer(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	again, err := f.Observer(&stderr)
	if err != nil || again != ob {
		t.Fatalf("second Observer = %p, %v; want the first, %p", again, err, ob)
	}
	if got := strings.Count(stderr.String(), "debug server listening on http://127.0.0.1:"); got != 1 {
		t.Fatalf("stderr has %d listening lines, want 1:\n%s", got, stderr.String())
	}
}

// firstWriteProbe records whether a file existed when the first byte
// reached it.
type firstWriteProbe struct {
	path    string
	written bool
	existed bool
	bytes.Buffer
}

func (w *firstWriteProbe) Write(p []byte) (int, error) {
	if !w.written {
		_, err := os.Stat(w.path)
		w.written, w.existed = true, err == nil
	}
	return w.Buffer.Write(p)
}

// TestFlagsCloseRendersSummaryThenExports: Close prints the -metrics
// summary before the observer writes -trace-out and -events-out, and
// after Close both files are there.
func TestFlagsCloseRendersSummaryThenExports(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{OnError: "continue", Metrics: true,
		TraceOut: filepath.Join(dir, "t.json"), EventsOut: filepath.Join(dir, "e.jsonl")}
	stderr := &firstWriteProbe{path: f.EventsOut}
	if _, err := f.Engine(stderr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "runs executed") {
		t.Fatalf("Close rendered no summary:\n%s", stderr.String())
	}
	if stderr.existed {
		t.Fatal("the events file was written before the summary")
	}
	for _, p := range []string{f.TraceOut, f.EventsOut} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("Close did not write %s: %v", p, err)
		}
	}
}

// TestFlagsCloseWithoutEngine: Close without a built engine renders no
// summary; it writes the exports only when an observer was built, as
// when the engine's own flags are bad.
func TestFlagsCloseWithoutEngine(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{OnError: "continue", Metrics: true, TraceOut: filepath.Join(dir, "t.json")}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(f.TraceOut); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Close with nothing built touched -trace-out: %v", err)
	}

	f.OnError = "sometimes"
	var stderr bytes.Buffer
	_, err := f.Engine(&stderr)
	var ue *cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("bad -on-error: got %v, want a usage error", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Fatalf("Close without an engine wrote to stderr: %q", stderr.String())
	}
	if _, err := os.Stat(f.TraceOut); err != nil {
		t.Fatalf("the observer built before the bad -on-error did not write -trace-out: %v", err)
	}
}
