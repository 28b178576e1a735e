package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// get fetches a debug-server path and returns status and body.
func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	o := NewObserver(NewFake(epoch, time.Millisecond))
	o.Registry.CounterFunc("commchar_pipeline_runs_total", "simulations actually executed",
		func() int64 { return 7 })
	o.Progress.Done("IS#1", "run")
	o.Events.Emit("spec.done", map[string]string{"spec": "IS#1"})
	if err := o.ServeDebug("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	addr := o.DebugAddr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	if err := o.ServeDebug("127.0.0.1:0"); err == nil {
		t.Error("second ServeDebug must refuse")
	}

	if code, body := get(t, addr, "/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get(t, addr, "/metrics")
	if code != 200 ||
		!strings.Contains(body, "# TYPE commchar_pipeline_runs_total counter") ||
		!strings.Contains(body, "commchar_pipeline_runs_total 7") ||
		!strings.Contains(body, "commchar_build_info") {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	if code, body := get(t, addr, "/varz"); code != 200 || !strings.Contains(body, `"commchar_pipeline_runs_total": 7`) {
		t.Errorf("/varz = %d\n%s", code, body)
	}
	if code, body := get(t, addr, "/progress"); code != 200 ||
		!strings.Contains(body, `"done": 1`) || !strings.Contains(body, `"IS#1"`) {
		t.Errorf("/progress = %d\n%s", code, body)
	}
	if code, body := get(t, addr, "/events"); code != 200 || !strings.Contains(body, "spec.done") {
		t.Errorf("/events = %d\n%s", code, body)
	}
	if code, _ := get(t, addr, "/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}
