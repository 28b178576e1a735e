package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"commchar/internal/cli"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

// writeRingTrace writes a balanced 4-rank ring trace (each rank sends to
// its successor, receives from its predecessor, rounds times) and returns
// its path.
func writeRingTrace(t *testing.T, rounds int) string {
	t.Helper()
	tr := trace.New(4)
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < rounds; i++ {
			tr.Add(rank, trace.Event{Op: trace.OpSend, Peer: (rank + 1) % 4, Bytes: 64, Tag: i, Compute: sim.Duration(500 * (rank + 1))})
			tr.Add(rank, trace.Event{Op: trace.OpRecv, Peer: (rank + 3) % 4, Tag: i})
		}
	}
	return writeTrace(t, tr)
}

// writeTrace writes tr as a trace CSV and returns its path.
func writeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFaultRunDeterministic is the acceptance check: a fault-injected run
// with message drops and retransmissions produces byte-identical delivery
// logs when repeated with the same seed, and the log flags the faulted
// messages.
func TestFaultRunDeterministic(t *testing.T) {
	tracePath := writeRingTrace(t, 25)
	logOnce := func(seed string) ([]byte, string) {
		out := filepath.Join(t.TempDir(), "deliveries.csv")
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{
			"-trace", tracePath, "-ranks", "4", "-topology", "mesh", "-dims", "2,2",
			"-faults", "drop:0.2", "-fault-seed", seed,
			"-max-events", "5000000", "-out", out,
		}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("run failed: %v\n%s", err, stderr.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data, stdout.String()
	}

	a, reportA := logOnce("7")
	b, _ := logOnce("7")
	if !bytes.Equal(a, b) {
		t.Fatal("equal-seed runs produced different delivery logs")
	}
	c, _ := logOnce("8")
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical delivery logs")
	}

	log, err := trace.ReadDeliveries(bytes.NewReader(a), 0)
	if err != nil {
		t.Fatalf("reading log back: %v", err)
	}
	var flagged int
	for _, d := range log {
		if d.Faults != 0 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("p=0.2 drop schedule left no flagged messages")
	}
	if !bytes.Contains([]byte(reportA), []byte("faulted msgs")) {
		t.Errorf("report missing fault summary:\n%s", reportA)
	}
}

// TestEventBudgetFailsOnce: a tripped watchdog budget fails the run
// after one replay. A replay is a pure function of its inputs, so a
// rerun would trip the same budget: the error names no attempts and the
// metrics summary counts one failed spec and no retries.
func TestEventBudgetFailsOnce(t *testing.T) {
	tracePath := writeRingTrace(t, 25)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-trace", tracePath, "-ranks", "4", "-max-events", "50", "-metrics",
	}, &stdout, &stderr)
	var de *sim.DeadlockError
	if !errors.As(err, &de) || !strings.HasPrefix(de.Reason, "event budget") {
		t.Fatalf("run = %v, want a tripped event budget", err)
	}
	if strings.Contains(err.Error(), "attempts") {
		t.Errorf("error counts attempts: %v", err)
	}
	summary := stderr.String()
	if !regexp.MustCompile(`(?m)^ *failed specs +1 *$`).MatchString(summary) || strings.Contains(summary, "retries") {
		t.Errorf("summary should show one failed spec and no retries:\n%s", summary)
	}
}

// TestUsageErrors: command-line mistakes map to usage errors (exit 2), not
// runtime failures.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), nil, &out, &out)
	var ue *cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("missing -trace: expected UsageError, got %v", err)
	}
	err = run(context.Background(), []string{"-trace", writeRingTrace(t, 1), "-ranks", "4", "-faults", "nonsense"}, &out, &out)
	if !errors.As(err, &ue) {
		t.Fatalf("bad -faults: expected UsageError, got %v", err)
	}
	err = run(context.Background(), []string{"-trace", writeRingTrace(t, 1), "-ranks", "4", "-topology", "mesh", "-dims", "1,2"}, &out, &out)
	if code := cli.ExitCode(err); code != cli.ExitUsage {
		t.Fatalf("1x2 mesh for 4 ranks: exit code %d, want %d (%v)", code, cli.ExitUsage, err)
	}
}

// TestBadRanksIsUsageError: a rank count below one is a usage error (exit
// 2), not a panic in building the trace.
func TestBadRanksIsUsageError(t *testing.T) {
	path := writeRingTrace(t, 1)
	for _, ranks := range []string{"-1", "0"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-trace", path, "-ranks", ranks}, &out, &out)
		var ue *cli.UsageError
		if !errors.As(err, &ue) || cli.ExitCode(err) != cli.ExitUsage {
			t.Errorf("-ranks %s: run = %v (exit %d), want a usage error (exit %d)", ranks, err, cli.ExitCode(err), cli.ExitUsage)
		}
	}
}

// TestMaxWallIsGone: -spec-timeout is the one wall-clock budget, so the
// retired -max-wall is an unknown flag.
func TestMaxWallIsGone(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-trace", writeRingTrace(t, 1), "-ranks", "4", "-max-wall", "1s"}, &out, &out)
	if code := cli.ExitCode(err); code != cli.ExitUsage {
		t.Fatalf("-max-wall: exit code %d, want %d (%v)", code, cli.ExitUsage, err)
	}
}

// TestSpecTimeoutStopsReplay: a -spec-timeout trip stops a replay inside
// the simulator and fails it (exit 1) with the simulator's diagnostics,
// the mesh's in-flight dump included, and the deadline as its cause. The
// ring replays for several times the deadline, so the trip lands in the
// simulation with no sleep. It sends every round on one tag: a tag per
// round would make the trace's balance check, which runs before the
// simulation, cost as much as the deadline.
func TestSpecTimeoutStopsReplay(t *testing.T) {
	const rounds = 100_000
	tr := trace.New(4)
	for rank := 0; rank < 4; rank++ {
		for range rounds {
			tr.Add(rank, trace.Event{Op: trace.OpSend, Peer: (rank + 1) % 4, Bytes: 64, Compute: sim.Duration(500 * (rank + 1))})
			tr.Add(rank, trace.Event{Op: trace.OpRecv, Peer: (rank + 3) % 4})
		}
	}
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-trace", writeTrace(t, tr), "-ranks", "4", "-topology", "mesh", "-dims", "2,2", "-spec-timeout", "200ms",
	}, &stdout, &stderr)
	if code := cli.ExitCode(err); code != cli.ExitFailure {
		t.Fatalf("exit code %d, want %d (%v)", code, cli.ExitFailure, err)
	}
	var de *sim.DeadlockError
	if !errors.As(err, &de) || de.Cause != context.DeadlineExceeded {
		t.Fatalf("run = %v, want a *sim.DeadlockError caused by the deadline", err)
	}
	if !strings.Contains(err.Error(), "[mesh]\n  in-flight:") {
		t.Errorf("error lacks the mesh's in-flight dump: %v", err)
	}
}

// TestTruncatedHeaderFails: a trace cut off inside its header has no
// prefix to replay, so it fails as a plain runtime error.
func TestTruncatedHeaderFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.csv")
	if err := os.WriteFile(path, []byte(`"rank`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-trace", path, "-ranks", "4"}, &out, &out)
	var te *trace.TruncatedError
	if !errors.As(err, &te) || cli.ExitCode(err) != cli.ExitFailure {
		t.Fatalf("run = %v, want a *trace.TruncatedError exiting %d", err, cli.ExitFailure)
	}
}

// TestTopologyFlagEndToEnd replays the same trace on every fabric through
// the full command path and checks the header names the fabric, the run
// is deterministic, and the default path still prints the legacy header
// and replays the same machine as the mesh named with its shape.
func TestTopologyFlagEndToEnd(t *testing.T) {
	tracePath := writeRingTrace(t, 10)
	runOnce := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		all := append([]string{"-trace", tracePath, "-ranks", "4", "-max-events", "5000000"}, args...)
		if err := run(context.Background(), all, &stdout, &stderr); err != nil {
			t.Fatalf("run %v failed: %v\n%s", args, err, stderr.String())
		}
		return stdout.String()
	}

	def := runOnce()
	if !strings.HasPrefix(def, "mesh          : 4x1, 1 VCs, ") {
		t.Errorf("default run lost the legacy header:\n%s", def)
	}
	named := runOnce("-topology", "mesh", "-dims", "4,1")
	if !strings.HasPrefix(named, "fabric        : mesh4x1, ") {
		t.Errorf("-topology mesh header:\n%s", named)
	}
	_, defBody, _ := strings.Cut(def, "\n")
	_, namedBody, _ := strings.Cut(named, "\n")
	if defBody != namedBody {
		t.Errorf("default and -topology mesh -dims 4,1 replays differ:\n%s\nvs\n%s", def, named)
	}
	for topo, name := range map[string]string{
		"torus3d":   "torus2x2x2",
		"fattree":   "fattree4:1",
		"dragonfly": "dragonfly a2h1",
		"hypercube": "hypercube2d",
	} {
		out := runOnce("-topology", topo)
		if !bytes.Contains([]byte(out), []byte("fabric        : "+name)) {
			t.Errorf("-topology %s header missing %q:\n%s", topo, name, out)
		}
		if out != runOnce("-topology", topo) {
			t.Errorf("-topology %s runs diverged", topo)
		}
	}
	out := runOnce("-topology", "torus", "-dims", "4,4")
	if !bytes.Contains([]byte(out), []byte("fabric        : torus4x4")) {
		t.Errorf("-dims did not pin the shape:\n%s", out)
	}
}

// TestTopologyUsageErrors: topology-invalid invocations exit as usage
// errors before any simulation state is built.
func TestTopologyUsageErrors(t *testing.T) {
	tracePath := writeRingTrace(t, 1)
	for name, args := range map[string][]string{
		"unknown fabric":    {"-topology", "nosuch"},
		"bad dims":          {"-topology", "torus", "-dims", "4,x"},
		"dims without topo": {"-dims", "4,4"},
		"width is gone":     {"-width", "2", "-height", "2"},
		"torus one lane":    {"-topology", "torus3d", "-vcs", "1"},
		"too small":         {"-topology", "hypercube", "-dims", "1"},
	} {
		var out bytes.Buffer
		all := append([]string{"-trace", tracePath, "-ranks", "4"}, args...)
		err := run(context.Background(), all, &out, &out)
		var ue *cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: expected UsageError, got %v", name, err)
		}
	}
}
