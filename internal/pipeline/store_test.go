package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"commchar/internal/apps"
)

// fakeStore is an in-memory CacheStore with scriptable failure modes.
type fakeStore struct {
	mu      sync.Mutex
	blobs   map[string][]byte
	gets    int
	puts    int
	getErr  error
	putErr  error
	corrupt bool
}

func newFakeStore() *fakeStore { return &fakeStore{blobs: map[string][]byte{}} }

func (s *fakeStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.getErr != nil {
		return nil, false, s.getErr
	}
	data, ok := s.blobs[key]
	if !ok {
		return nil, false, nil
	}
	if s.corrupt {
		return []byte(`{"Meta":{}}`), true, nil
	}
	return data, true, nil
}

func (s *fakeStore) Put(ctx context.Context, key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.putErr != nil {
		return s.putErr
	}
	s.blobs[key] = append([]byte(nil), data...)
	return nil
}

func storeSpec() RunSpec { return RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall} }

// TestStoreWriteBehindThenReadThrough proves the fleet-sharing round trip:
// one engine's fresh run is uploaded write-behind, and a second engine
// with a cold local cache serves the same spec from the store — zero
// simulations — with a byte-identical artifact, persisted into its own
// disk cache for next time.
func TestStoreWriteBehindThenReadThrough(t *testing.T) {
	store := newFakeStore()

	e1, calls1 := stubEngine(t, Options{CacheDir: t.TempDir(), Store: store})
	ref, err := e1.Run(storeSpec())
	if err != nil {
		t.Fatal(err)
	}
	e1.Close() // drains the write-behind
	if *calls1 != 1 {
		t.Fatalf("first engine executed %d runs, want 1", *calls1)
	}
	if got := e1.Metrics().StorePuts.Load(); got != 1 {
		t.Fatalf("store puts = %d, want 1", got)
	}
	if len(store.blobs) != 1 {
		t.Fatalf("store holds %d blobs, want 1", len(store.blobs))
	}

	cache2 := t.TempDir()
	e2, calls2 := stubEngine(t, Options{CacheDir: cache2, Store: store})
	art, err := e2.Run(storeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if *calls2 != 0 {
		t.Fatalf("second engine executed %d runs, want 0 (store hit)", *calls2)
	}
	if art.Source != SourceStore {
		t.Fatalf("source = %q, want %q", art.Source, SourceStore)
	}
	if got := e2.Metrics().StoreHits.Load(); got != 1 {
		t.Fatalf("store hits = %d, want 1", got)
	}
	want := *ref
	want.Source = SourceStore
	got := *art
	if !reflect.DeepEqual(got.C, want.C) || !reflect.DeepEqual(got.MemStats, want.MemStats) ||
		!reflect.DeepEqual(got.Profiles, want.Profiles) || got.FaultCounters != want.FaultCounters {
		t.Fatal("store round trip did not reproduce the artifact")
	}

	// The store hit was persisted locally: a third engine on the same
	// cache dir but with no store serves it from disk.
	e3, calls3 := stubEngine(t, Options{CacheDir: cache2})
	a3, err := e3.Run(storeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if *calls3 != 0 || a3.Source != SourceDisk {
		t.Fatalf("third engine: calls=%d source=%q, want 0/disk", *calls3, a3.Source)
	}
}

// TestStoreDegradationFallsBackToRun proves graceful degradation: a store
// that errors on every operation costs counters, never the sweep.
func TestStoreDegradationFallsBackToRun(t *testing.T) {
	store := newFakeStore()
	store.getErr = errors.New("store unreachable")
	store.putErr = errors.New("store unreachable")

	e, calls := stubEngine(t, Options{CacheDir: t.TempDir(), Store: store})
	art, err := e.Run(storeSpec())
	if err != nil {
		t.Fatalf("degraded store failed the run: %v", err)
	}
	e.Close()
	if *calls != 1 || art.Source != SourceRun {
		t.Fatalf("calls=%d source=%q, want 1/run", *calls, art.Source)
	}
	if got := e.Metrics().StoreErrors.Load(); got != 1 {
		t.Fatalf("store errors = %d, want 1", got)
	}
	if got := e.Metrics().StorePutErrors.Load(); got != 1 {
		t.Fatalf("store put errors = %d, want 1", got)
	}
	if got := e.Metrics().StoreHits.Load(); got != 0 {
		t.Fatalf("store hits = %d, want 0", got)
	}
}

// TestStoreCorruptBlobFallsBackToRun proves a blob that decodes
// inconsistently is treated as a miss, not trusted and not fatal.
func TestStoreCorruptBlobFallsBackToRun(t *testing.T) {
	store := newFakeStore()

	seed, _ := stubEngine(t, Options{Store: store})
	if _, err := seed.Run(storeSpec()); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	store.corrupt = true

	e, calls := stubEngine(t, Options{Store: store})
	art, err := e.Run(storeSpec())
	if err != nil {
		t.Fatalf("corrupt store blob failed the run: %v", err)
	}
	if *calls != 1 || art.Source != SourceRun {
		t.Fatalf("calls=%d source=%q, want 1/run", *calls, art.Source)
	}
	if got := e.Metrics().StoreErrors.Load(); got != 1 {
		t.Fatalf("store errors = %d, want 1", got)
	}
}
