package dist

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

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
		t.Fatalf("%v (run `go test ./internal/dist -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestCoordinatorMetricsGolden pins the full commchar_dist_* /metrics and
// /varz exposition of a coordinator whose every counter holds a distinct
// value.
func TestCoordinatorMetricsGolden(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	v := reflect.ValueOf(coord.Metrics()).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*atomic.Int64).Add(int64(i + 1))
	}
	r := obs.NewRegistry()
	coord.Metrics().RegisterWith(r)
	var prom, varz bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteExpvar(&varz); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "coordinator.golden.prom", prom.Bytes())
	checkGolden(t, "coordinator.golden.json", varz.Bytes())
}
