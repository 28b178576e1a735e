package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetMainProtocol pins the three vettool protocol endpoints the go
// command probes before trusting a -vettool binary.
func TestVetMainProtocol(t *testing.T) {
	var out, errb strings.Builder

	if code := VetMain(&out, &errb, []string{"-V=full"}); code != 0 {
		t.Fatalf("-V=full exited %d: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "repolint version lint-") {
		t.Errorf("-V=full printed %q, want a lint-<fingerprint> version line", out.String())
	}

	out.Reset()
	if code := VetMain(&out, &errb, []string{"-flags"}); code != 0 {
		t.Errorf("-flags exited %d: %s", code, errb.String())
	}
	// The declared flag set is what `go vet` forwards to every unit
	// invocation; the tool declares none.
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("-flags printed %q, want the empty JSON flag list []", got)
	}

	errb.Reset()
	if code := VetMain(&out, &errb, []string{"not-a-config"}); code != 1 {
		t.Errorf("unexpected argument exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unexpected vettool argument") {
		t.Errorf("unexpected-argument stderr %q lacks an explanation", errb.String())
	}

	// repolint only reports, so -fix is rejected like any other
	// unexpected argument, even ahead of a unit config.
	errb.Reset()
	if code := VetMain(&out, &errb, []string{"-fix", "unit.cfg"}); code != 1 {
		t.Errorf("-fix exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), `unexpected vettool argument "-fix"`) {
		t.Errorf("-fix stderr %q does not reject the flag", errb.String())
	}
}

// TestVetToolEndToEnd builds cmd/repolint and runs it the way CI does —
// `go vet -vettool` — over a package known to be clean, exercising the
// real unit-config protocol (export data resolution, vetx caching, the
// VetxOnly dependency pass) rather than the in-process fixtures.
func TestVetToolEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	tool := filepath.Join(t.TempDir(), "repolint")
	build := exec.Command("go", "build", "-o", tool, "commchar/cmd/repolint")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building repolint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "commchar/internal/resilience")
	vet.Dir = filepath.Join("..", "..")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over a clean package failed: %v\n%s", err, out)
	}

	// And the self-vettool mode contributors use: `go run ./cmd/repolint`.
	if _, err := os.Stat(tool); err != nil {
		t.Fatal(err)
	}
	self := exec.Command(tool, "commchar/internal/resilience")
	self.Dir = filepath.Join("..", "..")
	if out, err := self.CombinedOutput(); err != nil {
		t.Fatalf("repolint self-vettool mode failed: %v\n%s", err, out)
	}
}
