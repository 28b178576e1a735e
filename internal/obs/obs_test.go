package obs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFakeClockAdvancesPerRead(t *testing.T) {
	c := NewFake(epoch, time.Second)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("first read = %v, want %v", got, epoch)
	}
	if got := c.Now(); !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("second read = %v, want epoch+1s", got)
	}
	c.Advance(time.Minute)
	if got := c.Now(); !got.Equal(epoch.Add(2*time.Second + time.Minute)) {
		t.Fatalf("after Advance = %v", got)
	}
}

func TestEventLogRingEvicts(t *testing.T) {
	l := NewEventLog(NewFake(epoch, time.Millisecond), 3)
	for i := 0; i < 5; i++ {
		l.Emit(fmt.Sprintf("e%d", i), nil)
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d, want 5", l.Total())
	}
	recent := l.Recent()
	if len(recent) != 3 {
		t.Fatalf("Recent retained %d, want 3", len(recent))
	}
	for i, want := range []string{"e2", "e3", "e4"} {
		if recent[i].Name != want {
			t.Errorf("recent[%d] = %s, want %s (oldest first)", i, recent[i].Name, want)
		}
	}
	if recent[0].Seq != 2 {
		t.Errorf("seq of oldest retained = %d, want 2", recent[0].Seq)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("JSONL lines = %d, want 3", lines)
	}
}

func TestProgressTransitionsAndReporter(t *testing.T) {
	var out bytes.Buffer
	p := NewProgress(NewFake(epoch, time.Millisecond))
	p.SetReporter(&out)
	p.Update("IS#1", StageQueued)
	p.Update("IS#1", StageQueued) // no change: no extra report line
	p.Update("IS#1", StageReplay)
	p.Done("IS#1", "run")
	p.Fail("FFT#2", errors.New("boom"))

	done, failed, total := p.Counts()
	if done != 1 || failed != 1 || total != 2 {
		t.Fatalf("Counts = (%d,%d,%d), want (1,1,2)", done, failed, total)
	}
	snap := p.Snapshot()
	if len(snap) != 2 || snap[0].Spec != "IS#1" || snap[1].Spec != "FFT#2" {
		t.Fatalf("Snapshot order = %+v, want first-seen order", snap)
	}
	if snap[0].Stage != StageDone || snap[0].Source != "run" {
		t.Errorf("IS#1 state = %+v", snap[0])
	}
	if snap[1].Err != "boom" {
		t.Errorf("FFT#2 error = %q", snap[1].Err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("reporter printed %d lines, want 4 (no line for a same-stage update):\n%s",
			len(lines), out.String())
	}
	if !strings.Contains(lines[2], "IS#1 done (run)") {
		t.Errorf("done line = %q", lines[2])
	}
	if !strings.Contains(lines[3], "1 failed") || !strings.Contains(lines[3], "boom") {
		t.Errorf("fail line = %q", lines[3])
	}
}

// TestNilObserverIsNoOp pins the zero-overhead contract: every method of
// a nil observer (and nil components) must be callable.
func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	o.StartSpan("p", "t", "c", "n").SetArg("k", "v").End()
	o.Instant("p", "t", "c", "n", nil)
	o.AddTraceEvents(TraceEvent{Name: "x"})
	o.Emit("e", nil)
	o.SpecStage("s", StageQueued)
	o.SpecDone("s", "run")
	o.SpecFail("s", errors.New("x"))
	if o.DebugAddr() != "" {
		t.Error("nil observer has a debug address")
	}
	if o.ClockOrSystem() == nil {
		t.Error("nil observer must still yield a clock")
	}
	if err := o.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
	if err := o.ServeDebug("127.0.0.1:0"); err == nil {
		t.Error("nil ServeDebug must refuse")
	}

	var tr *Tracer
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer not empty")
	}
	var reg *Registry
	reg.CounterFunc("x", "", nil)
	reg.CounterVec("v", "", "l", &CounterVec{})
	var vec *CounterVec
	vec.Add("a", 1)
	if vec.Snapshot() == nil {
		t.Error("nil counter vec snapshot is nil, want an empty map")
	}
	reg.Gauge("y", "").Set(1)
	reg.Histogram("z", "", nil).Observe(1)
	var el *EventLog
	el.Emit("e", nil)
	var pr *Progress
	pr.Update("s", StageQueued)
}

func TestNilFakeClockIsNoOp(t *testing.T) {
	var c *Fake
	if !c.Now().IsZero() {
		t.Error("nil fake clock does not read as the zero time")
	}
	c.Advance(time.Hour) // must not panic
	if !c.Now().IsZero() {
		t.Error("advancing a nil fake clock changed its reading")
	}
}

func TestDisabledFlagsYieldNilObserver(t *testing.T) {
	var buf bytes.Buffer
	var f *Flags
	if o, err := f.Observer(&buf); o != nil || err != nil {
		t.Errorf("nil Flags: Observer = %v, %v; want nil, nil", o, err)
	}
	if o, err := new(Flags).Observer(&buf); o != nil || err != nil {
		t.Errorf("zero Flags: Observer = %v, %v; want nil, nil", o, err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled flags wrote to stderr: %q", buf.String())
	}
}

func TestObserverCloseWritesExports(t *testing.T) {
	dir := t.TempDir()
	o := NewObserver(NewFake(epoch, time.Millisecond))
	o.TracePath = filepath.Join(dir, "trace.json")
	o.EventsPath = filepath.Join(dir, "events.jsonl")
	o.StartSpan("engine", "IS#1", "stage", "replay").End()
	o.Emit("spec.done", map[string]string{"spec": "IS#1"})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"replay"`) {
		t.Errorf("trace file missing span:\n%s", trace)
	}
	events, err := os.ReadFile(o.EventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), "spec.done") {
		t.Errorf("events file missing event:\n%s", events)
	}
}

func TestBuildInfoString(t *testing.T) {
	b := BuildInfo{Path: "commchar", Version: "(devel)",
		Revision: "0123456789abcdef", Modified: true, GoVersion: "go1.22.1"}
	want := "commchar (devel) 0123456789ab+dirty (go1.22.1)"
	if got := b.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := ReadBuildInfo().GoVersion; got == "" {
		t.Error("ReadBuildInfo lost the Go version")
	}
}

func TestCounterVecCountsFromZeroValue(t *testing.T) {
	var v CounterVec
	if snap := v.Snapshot(); snap == nil || len(snap) != 0 {
		t.Fatalf("zero-value snapshot = %#v, want an empty map", snap)
	}
	v.Add("torus", 2)
	v.Add("mesh", 1)
	v.Add("torus", 3)
	snap := v.Snapshot()
	snap["mesh"] = 99 // a snapshot is a copy
	if got := v.Snapshot(); got["mesh"] != 1 || got["torus"] != 5 || len(got) != 2 {
		t.Fatalf("snapshot = %v, want mesh=1 torus=5", got)
	}
	r := NewRegistry()
	r.CounterVec("commchar_mesh_runs_total", "runs per topology", "topology", &v)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP commchar_mesh_runs_total runs per topology\n" +
		"# TYPE commchar_mesh_runs_total counter\n" +
		"commchar_mesh_runs_total{topology=\"mesh\"} 1\n" +
		"commchar_mesh_runs_total{topology=\"torus\"} 5\n"
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}
