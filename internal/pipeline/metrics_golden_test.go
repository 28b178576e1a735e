package pipeline

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/obs"
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
		t.Fatalf("%v (run `go test ./internal/pipeline -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenObserver is fakeObserver with the build identity pinned, so the
// exposition does not depend on the toolchain or the VCS stamp.
func goldenObserver() *obs.Observer {
	ob := fakeObserver()
	ob.Registry.RegisterBuildInfo(obs.BuildInfo{Path: "commchar", Version: "(devel)", GoVersion: "go1.22"})
	return ob
}

// TestSummaryGoldenColdWarm pins the summary bytes of a clean cold run
// and of the warm run that follows it from the disk cache: no conditional
// row may appear in either.
func TestSummaryGoldenColdWarm(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{App: "IS", Procs: 2, Scale: apps.ScaleSmall}
	var out bytes.Buffer
	for _, pass := range []string{"cold", "warm"} {
		e, err := New(Options{Parallel: 1, CacheDir: dir, Obs: goldenObserver()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(spec); err != nil {
			t.Fatal(err)
		}
		out.WriteString("--- " + pass + " ---\n")
		e.Metrics().Render(&out)
	}
	checkGolden(t, "summary_cold_warm.golden", out.Bytes())
}

// TestMetricsGoldenEveryRow runs two collective specs (two algorithm
// families, two topologies) through an observed engine, bumps every
// conditional counter to a distinct value, and pins the summary together
// with the full /metrics and /varz exposition (commchar_pipeline_*,
// commchar_mesh_*, commchar_coll_*).
func TestMetricsGoldenEveryRow(t *testing.T) {
	ob := goldenObserver()
	e, err := New(Options{Parallel: 1, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []RunSpec{
		{App: "3D-FFT", Procs: 4, Scale: apps.ScaleSmall, Collectives: "binomial"},
		{App: "3D-FFT", Procs: 4, Scale: apps.ScaleSmall, Topology: "torus"},
	} {
		if _, err := e.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	m.RemoteRuns.Add(2)
	m.RemoteNS.Add(3_250_000)
	m.DiskStoreErrors.Add(8)
	m.DiskCorrupt.Add(9)
	m.Panics.Add(10)
	m.Cancelled.Add(11)
	m.SpecFailures.Add(12)

	var summary bytes.Buffer
	m.Render(&summary)
	checkGolden(t, "summary_every_row.golden", summary.Bytes())

	var prom, varz bytes.Buffer
	if err := ob.Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := ob.Registry.WriteExpvar(&varz); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "engine.golden.prom", prom.Bytes())
	checkGolden(t, "engine.golden.json", varz.Bytes())
}
