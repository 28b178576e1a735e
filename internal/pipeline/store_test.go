package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"commchar/internal/apps"
)

// The engine's one artifact store is its disk cache, and a fleet shares
// its coordinator's: that engine serves a finished spec from its cache
// before it calls the Remote executor, and stores every remote artifact
// there. These tests pin that arrangement from the engine's side.

// storeExecutor is a Remote executor that serves every spec from an
// in-memory blob map, as a fleet returns finished artifacts, and counts
// its calls.
type storeExecutor struct {
	mu    sync.Mutex
	blobs map[string][]byte
	calls int
}

func (s *storeExecutor) Execute(ctx context.Context, spec RunSpec, key string) (*Artifact, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	data, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("no blob for %s", key)
	}
	return UnmarshalArtifact(data, spec, key)
}

func storeSpec() RunSpec { return RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall} }

// mustMarshal serializes an artifact, failing the test on error.
func mustMarshal(t *testing.T, a *Artifact) []byte {
	t.Helper()
	data, err := MarshalArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreWriteBehindThenReadThrough proves the fleet-sharing round trip
// on the engine's side: an engine with a cold local cache whose remote
// executor serves a stored blob runs no simulation and returns the
// blob's artifact byte for byte, stores it behind into its own disk
// cache, and a later engine on that cache with no remote reads it
// through from disk.
func TestStoreWriteBehindThenReadThrough(t *testing.T) {
	e1, calls1 := stubEngine(t, Options{})
	ref, err := e1.Run(storeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if *calls1 != 1 {
		t.Fatalf("first engine executed %d runs, want 1", *calls1)
	}
	blob := mustMarshal(t, ref)
	store := &storeExecutor{blobs: map[string][]byte{ref.Key: blob}}

	cache := t.TempDir()
	e2, calls2 := stubEngine(t, Options{CacheDir: cache, Remote: store})
	art, err := e2.Run(storeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if *calls2 != 0 || store.calls != 1 {
		t.Fatalf("second engine: local runs=%d remote calls=%d, want 0/1", *calls2, store.calls)
	}
	if art.Source != SourceRemote || e2.Metrics().RemoteRuns.Load() != 1 {
		t.Fatalf("source=%q remote runs=%d, want %q/1", art.Source, e2.Metrics().RemoteRuns.Load(), SourceRemote)
	}
	if !bytes.Equal(mustMarshal(t, art), blob) {
		t.Fatal("the served artifact differs from the stored blob")
	}
	if e2.Metrics().DiskStoreErrors.Load() != 0 {
		t.Fatal("storing the served artifact failed")
	}

	e3, calls3 := stubEngine(t, Options{CacheDir: cache})
	a3, err := e3.Run(storeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if *calls3 != 0 || a3.Source != SourceDisk {
		t.Fatalf("third engine: calls=%d source=%q, want 0/disk", *calls3, a3.Source)
	}
	if !bytes.Equal(mustMarshal(t, a3), blob) {
		t.Fatal("the disk entry differs from the stored blob")
	}
}

// TestStoreDegradationFallsBackToRun proves graceful degradation: a disk
// cache that fails every operation — its directory replaced by a plain
// file — costs a counter and an event, never the run.
func TestStoreDegradationFallsBackToRun(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	e, calls := stubEngine(t, Options{CacheDir: cache})
	if err := os.RemoveAll(cache); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	art, err := e.Run(storeSpec())
	if err != nil {
		t.Fatalf("a failing disk cache failed the run: %v", err)
	}
	if *calls != 1 || art.Source != SourceRun {
		t.Fatalf("calls=%d source=%q, want 1/run", *calls, art.Source)
	}
	m := e.Metrics()
	if m.DiskStoreErrors.Load() != 1 || m.DiskHits.Load() != 0 || m.DiskCorrupt.Load() != 0 {
		t.Fatalf("disk store errors=%d hits=%d corrupt=%d, want 1/0/0",
			m.DiskStoreErrors.Load(), m.DiskHits.Load(), m.DiskCorrupt.Load())
	}
}

// TestStoreCorruptBlobFallsBackToRun proves a blob that decodes
// inconsistently is treated as a miss, not trusted and not fatal: a
// well-formed entry of another machine size, filed under this spec's
// key, is run over, and the run's store heals the entry.
func TestStoreCorruptBlobFallsBackToRun(t *testing.T) {
	dir := t.TempDir()
	seed, _ := stubEngine(t, Options{CacheDir: dir})
	other := storeSpec()
	other.Procs = 8
	wrong, err := seed.Run(other)
	if err != nil {
		t.Fatal(err)
	}
	key, err := storeSpec().Key(DefaultSalt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(seed.disk.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seed.disk.path(key), mustMarshal(t, wrong), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, want := range []Source{SourceRun, SourceDisk} { // miss, then healed
		e, calls := stubEngine(t, Options{CacheDir: dir})
		art, err := e.Run(storeSpec())
		if err != nil {
			t.Fatalf("an inconsistent entry failed the run: %v", err)
		}
		if art.Key != key || art.Source != want || art.C.Procs != 4 {
			t.Fatalf("key=%s source=%q procs=%d, want %s/%q/4", art.Key, art.Source, art.C.Procs, key, want)
		}
		if want == SourceRun && *calls != 1 {
			t.Fatalf("calls=%d, want 1", *calls)
		}
	}
}
