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

// buildRepolint builds cmd/repolint into a temporary directory.
func buildRepolint(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "repolint")
	build := exec.Command("go", "build", "-o", tool, "commchar/cmd/repolint")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building repolint: %v\n%s", err, out)
	}
	return tool
}

// TestVetToolEndToEnd builds cmd/repolint and runs it the way CI does —
// `go vet -vettool` — over a package known to be clean, exercising the
// real unit-config protocol (export data resolution, vetx caching, the
// VetxOnly dependency pass) rather than the in-process fixtures.
func TestVetToolEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	tool := buildRepolint(t)

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

// vetxModule is a module named like this one, so that its packages
// record facts, with three bugs that each cross the import edge from b
// to a: a goroutine started on a's endless loop, a discarded handle from
// a's constructor, and a call to a's channel send under b's lock.
var vetxModule = map[string]string{
	"internal/a/a.go": `package a

type Progress struct{ polls int }

func NewProgress(total []int) *Progress { return &Progress{} }

// Poll polls forever; nothing can cancel it.
func (p *Progress) Poll() {
	for {
		p.polls++
	}
}

type Server struct{}

func StartServer(addr string) *Server { return &Server{} }

func (s *Server) Close() error { return nil }

// Notify blocks until someone receives.
func Notify(ch chan<- string, msg string) { ch <- msg }
`,
	"internal/b/b.go": `package b

import (
	"sync"

	"commchar/internal/a"
)

type Coordinator struct {
	mu sync.Mutex
	ch chan string
}

func (c *Coordinator) Watch() {
	go a.NewProgress(nil).Poll()
}

func Serve() {
	a.StartServer(":0")
}

func (c *Coordinator) Done(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a.Notify(c.ch, id)
}
`,
}

// TestVetToolCarriesFacts runs the built repolint through go vet over
// vetxModule, so the facts b needs reach it only through a's vetx file,
// and requires exactly the three diagnostics the bugs call for.
func TestVetToolCarriesFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	tool := buildRepolint(t)
	dir := t.TempDir()
	files := map[string]string{"go.mod": "module commchar\n\ngo 1.22\n"}
	for name, src := range vetxModule {
		files[name] = src
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed over three planted bugs:\n%s", out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, ".go:") {
			got = append(got, line)
		}
	}
	want := []string{
		"internal/b/b.go:15:2: leakcheck: go a.Progress.Poll starts a loop with no cancellation path " +
			"(proven in commchar/internal/a); plumb a context or done channel so shutdown can reach it",
		"internal/b/b.go:19:2: leakcheck: result of a.StartServer is a handle but is discarded; release it with Close",
		"internal/b/b.go:25:2: lockorder: call to a.Notify while holding Coordinator.mu: it sends on a channel",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("go vet reported\n%s\nwant\n%s\nfull output:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"), out)
	}
}
