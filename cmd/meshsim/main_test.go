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
	path := filepath.Join(t.TempDir(), "ring.csv")
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
			"-trace", tracePath, "-ranks", "4", "-width", "2", "-height", "2",
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

	log, err := trace.ReadDeliveries(bytes.NewReader(a))
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
	err = run(context.Background(), []string{"-trace", "x.csv", "-faults", "nonsense"}, &out, &out)
	if !errors.As(err, &ue) {
		t.Fatalf("bad -faults: expected UsageError, got %v", err)
	}
	err = run(context.Background(), []string{"-trace", writeRingTrace(t, 1), "-ranks", "4", "-width", "1", "-height", "2"}, &out, &out)
	if code := cli.ExitCode(err); code != cli.ExitUsage {
		t.Fatalf("1x2 mesh for 4 ranks: exit code %d, want %d (%v)", code, cli.ExitUsage, err)
	}
}

// TestTopologyFlagEndToEnd replays the same trace on every fabric through
// the full command path and checks the header names the fabric, the run
// is deterministic, and the default path still prints the legacy header.
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

	if out := runOnce(); !bytes.Contains([]byte(out), []byte("mesh          : 4x1")) {
		t.Errorf("default run lost the legacy header:\n%s", out)
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
		"width with topo":   {"-topology", "torus3d", "-width", "2", "-height", "2"},
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
