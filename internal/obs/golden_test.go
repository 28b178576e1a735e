package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// epoch is the fake clock's fixed start; the step makes successive reads
// visibly distinct in the exports.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fixtureTracer records a deterministic mix of engine spans, instants,
// and pre-built simulated-time slices under the fake clock.
func fixtureTracer() *Tracer {
	tr := NewTracer(NewFake(epoch, 10*time.Millisecond))
	sp := tr.StartSpan("engine", "IS#0a1b2c3d", "stage", "acquire").SetArg("key", "0a1b2c3d")
	tr.Instant("engine", "IS#0a1b2c3d", "cache", "disk-miss", nil)
	sp.End()
	rp := tr.StartSpan("engine", "IS#0a1b2c3d", "stage", "replay")
	rp.End()
	tr.StartSpan("engine", "FFT#99ffee00", "stage", "analyze").End()
	tr.Add(
		TraceEvent{Process: "sim IS#0a1b2c3d", Track: "rank 00", Cat: "msg",
			Name: "msg 0→1", TS: 0.5, Dur: 0.4, Phase: 'X',
			Args: map[string]string{"bytes": "64", "hops": "1"}},
		TraceEvent{Process: "sim IS#0a1b2c3d", Track: "rank 01", Cat: "msg",
			Name: "msg 1→0 (failed)", TS: 0.9, Dur: 0.001, Phase: 'X',
			Args: map[string]string{"bytes": "32", "hops": "2", "status": "failed"}},
	)
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixtureTracer().Events()); err != nil {
		t.Fatal(err)
	}
	// The export must be valid JSON before it is byte-compared: Perfetto
	// parses it, not us.
	var doc []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc) == 0 {
		t.Fatal("trace has no events")
	}
	checkGolden(t, "trace.golden.json", buf.Bytes())
}

// fixtureRegistry populates one of every metric kind deterministically.
func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("commchar_pipeline_runs_total", "simulations actually executed",
		func() int64 { return 3 })
	r.CounterFunc("commchar_pipeline_cache_hits_disk_total", "artifacts served from the on-disk cache",
		func() int64 { return 2 })
	g := r.Gauge("commchar_sim_clock_ns", "most recently reported simulated clock (ns)")
	g.Set(1.25e6)
	r.Gauge("commchar_workers_busy", "worker slots in use").Set(4)
	r.ConstGauge("commchar_build_info", "build identity of the running binary (value is always 1)",
		map[string]string{"path": "commchar", "version": "(devel)", "revision": "deadbeef", "go_version": "go1.22"}, 1)
	h := r.Histogram("commchar_pipeline_replay_seconds", "wall time of the replay stage per executed run", nil)
	for _, v := range []float64{0.0004, 0.003, 0.003, 0.07, 1.5, 120} {
		h.Observe(v)
	}
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden.prom", buf.Bytes())
}

func TestExpvarGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRegistry().WriteExpvar(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("expvar export is not valid JSON: %v", err)
	}
	checkGolden(t, "varz.golden.json", buf.Bytes())
}

func TestExportsAreReproducible(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, fixtureTracer().Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, fixtureTracer().Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical traced sequences exported different bytes")
	}
}
