package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"commchar/internal/apps"
	"commchar/internal/obs"
)

// fakeObserver builds an observer on a deterministic clock, as the
// golden-export and integration tests use it.
func fakeObserver() *obs.Observer {
	return obs.NewObserver(obs.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond))
}

// TestEngineInstrumentation runs one spec twice through an observed
// stub engine and asserts the full observability surface: spans for
// every stage, a memory-hit instant on the repeat, progress states,
// exported counters, and the simulated-time message timeline.
func TestEngineInstrumentation(t *testing.T) {
	ob := fakeObserver()
	e, calls := stubEngine(t, Options{Parallel: 1, Obs: ob})
	spec := RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall}
	if _, err := e.Run(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(spec); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("stages ran %d times, want 1 (second run is a memory hit)", *calls)
	}

	events := ob.Tracer.Events()
	var names []string
	byName := map[string]obs.TraceEvent{}
	for _, ev := range events {
		names = append(names, ev.Name)
		byName[ev.Name] = ev
	}
	for _, want := range []string{"queued", "analyze", "run IS", "memory-hit"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("no %q event in trace; got %v", want, names)
		}
	}
	// The stub bypasses acquire/replay, but the synthetic delivery log
	// must still render as simulated-time slices on its own process.
	simSlices := 0
	for _, ev := range events {
		if strings.HasPrefix(ev.Process, "sim IS#") && ev.Phase == 'X' {
			simSlices++
		}
	}
	if simSlices == 0 {
		t.Error("no simulated-time message slices in the trace")
	}
	if run := byName["run IS"]; len(run.Args["key"]) != 64 {
		t.Errorf("run span key = %q, want the spec's cache key", run.Args["key"])
	}

	done, failed, total := ob.Progress.Counts()
	if done != 1 || failed != 0 || total != 1 {
		t.Errorf("progress counts = (%d,%d,%d), want (1,0,1)", done, failed, total)
	}
	snap := ob.Progress.Snapshot()
	if len(snap) != 1 || snap[0].Source != string(SourceMemory) {
		// The second run completed last, so the terminal source is the
		// memory cache.
		t.Errorf("progress snapshot = %+v", snap)
	}

	var prom bytes.Buffer
	if err := ob.Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"commchar_pipeline_runs_total 1",
		"commchar_pipeline_cache_hits_memory_total 1",
		"commchar_pipeline_analyze_seconds_count 1",
		"commchar_build_info",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if ob.Events.Total() == 0 {
		t.Error("flight recorder saw no events")
	}
}

// TestObservedFailureIsTracked pins the failure path: a failing spec
// must surface in progress as failed with its error, and in the flight
// recorder.
func TestObservedFailureIsTracked(t *testing.T) {
	ob := fakeObserver()
	e, err := New(Options{Parallel: 1, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	e.runStages = func(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
		return nil, errors.New("synthetic stage failure")
	}
	spec := RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall}
	if _, err := e.Run(spec); err == nil {
		t.Fatal("expected failure")
	}
	done, failed, total := ob.Progress.Counts()
	if done != 0 || failed != 1 || total != 1 {
		t.Fatalf("progress counts = (%d,%d,%d), want (0,1,1)", done, failed, total)
	}
	snap := ob.Progress.Snapshot()
	if !strings.Contains(snap[0].Err, "synthetic stage failure") {
		t.Errorf("progress error = %q", snap[0].Err)
	}
	found := false
	for _, ev := range ob.Events.Recent() {
		if ev.Name == "spec.failed" {
			found = true
		}
	}
	if !found {
		t.Error("no spec.failed event in the flight recorder")
	}
}

// TestUnobservedEngineUnchanged pins the nil-observer contract at the
// engine level: no observer means no clock reads beyond the system shim
// and artifacts identical to an observed engine's.
func TestUnobservedEngineUnchanged(t *testing.T) {
	plain, _ := stubEngine(t, Options{Parallel: 1})
	seen, _ := stubEngine(t, Options{Parallel: 1, Obs: fakeObserver()})
	spec := RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall}
	a, err := plain.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := seen.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Fatalf("keys differ: %s vs %s", a.Key, b.Key)
	}
	if len(a.C.Log) != len(b.C.Log) || a.C.Messages != b.C.Messages {
		t.Error("observed and unobserved runs produced different characterizations")
	}
}
