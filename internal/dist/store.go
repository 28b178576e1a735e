package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"commchar/internal/obs"
	"commchar/internal/resilience"
)

// The shared artifact store is the fleet-wide tier of the pipeline's
// cache hierarchy: a content-addressed blob store the coordinator serves
// over HTTP (GET/PUT /v1/blob/{key}), holding artifact serializations
// (pipeline.MarshalArtifact) keyed by the spec's cache key. The coordinator feeds it
// write-behind from every accepted completion; workers attach an
// HTTPStore as their engine's pipeline.CacheStore, so one worker's
// finished run is every other worker's warm hit.
//
// The store is strictly best-effort by contract. The HTTPStore client
// verifies every fetch against its SHA-256 transfer hash and guards the
// endpoint with a resilience.Breaker: an unreachable, erroring, or
// corrupt store trips the breaker and the engine falls back to the local
// disk cache — counted (commchar_dist_store_degraded_total) and
// flight-recorded, never a failed spec.

// blobHashHeader carries the hex SHA-256 of the blob body on both blob
// verbs, so either end can prove the transfer intact.
const blobHashHeader = "X-Blob-SHA256"

// validBlobKey reports whether key has the cache key's shape: lowercase
// hex, 64 digits. Anything else is rejected before it can name a path.
func validBlobKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// A BlobStore is the coordinator-side blob directory: one file per cache
// key, written atomically. It is safe for concurrent use.
type BlobStore struct {
	dir string
	// seq decorrelates concurrent same-key writers' temp names.
	seq atomic.Uint64
}

// NewBlobStore opens (creating if needed) a blob directory.
//
//lint:allow ctxflow one bounded local mkdir at setup; the serving ctx belongs to the HTTP layer above
func NewBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: opening blob store: %w", err)
	}
	return &BlobStore{dir: dir}, nil
}

// Get reads the blob for key; ok reports whether it exists.
//
//lint:allow ctxflow one bounded local-file read; request cancellation is the HTTP handler's job
func (s *BlobStore) Get(key string) ([]byte, bool, error) {
	if !validBlobKey(key) {
		return nil, false, fmt.Errorf("dist: blob store: malformed key %q", key)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("dist: blob store: reading %s: %w", key, err)
	}
	return data, true, nil
}

// Put writes the blob for key atomically (tmp + rename). Concurrent
// writers of one key race benignly: the blobs are bit-identical by the
// determinism invariant, and rename is atomic.
//
//lint:allow ctxflow one bounded local write+rename; abandoning it midway would leave torn blobs
func (s *BlobStore) Put(key string, data []byte) error {
	if !validBlobKey(key) {
		return fmt.Errorf("dist: blob store: malformed key %q", key)
	}
	tmp := filepath.Join(s.dir, fmt.Sprintf(".%s.tmp%d", key, s.seq.Add(1)))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dist: blob store: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: blob store: publishing %s: %w", key, err)
	}
	return nil
}

// Len counts the stored blobs (tests and the /distz page).
//
//lint:allow ctxflow one bounded local directory listing for diagnostics
func (s *BlobStore) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if validBlobKey(e.Name()) {
			n++
		}
	}
	return n
}

// Handler serves the blob API:
//
//	GET /v1/blob/{key}  200 blob bytes + X-Blob-SHA256, or 404
//	PUT /v1/blob/{key}  204 on accept; the body's hash must match the
//	                    X-Blob-SHA256 header when the client sends one
func (s *BlobStore) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/blob/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validBlobKey(key) {
			writeError(w, http.StatusBadRequest, "", fmt.Sprintf("malformed blob key %q", key))
			return
		}
		data, ok, err := s.Get(key)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "", err.Error())
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, "", "no such blob")
			return
		}
		sum := sha256.Sum256(data)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(blobHashHeader, hex.EncodeToString(sum[:]))
		w.Write(data)
	})
	mux.HandleFunc("PUT /v1/blob/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validBlobKey(key) {
			writeError(w, http.StatusBadRequest, "", fmt.Sprintf("malformed blob key %q", key))
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "", fmt.Sprintf("reading blob: %v", err))
			return
		}
		if want := r.Header.Get(blobHashHeader); want != "" {
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				// A hash that disagrees with the body means the upload was
				// damaged in transit; storing it would poison every reader.
				writeError(w, http.StatusBadRequest, "",
					fmt.Sprintf("blob hash mismatch: body %.16s, header %.16s", got, want))
				return
			}
		}
		if err := s.Put(key, data); err != nil {
			writeError(w, http.StatusInternalServerError, "", err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// HTTPStoreOptions configures an HTTPStore. Zero values take defaults.
type HTTPStoreOptions struct {
	// Base is the store server's URL prefix (the coordinator's base URL).
	// It may be left empty and set later with SetBase — a worker learns
	// its coordinator at attach time.
	Base string
	// Timeout bounds one store operation; default 10s. Deliberately
	// shorter than an RPC timeout: a slow store is a degraded store, and
	// the local fallback is always available.
	Timeout time.Duration
	// Breaker tunes the endpoint's circuit breaker; the zero value takes
	// the resilience defaults.
	Breaker resilience.BreakerOptions
	// Transport overrides the HTTP transport (fault injection).
	Transport http.RoundTripper
	// Obs receives degradation events; nil is a no-op.
	Obs *obs.Observer
	// Metrics receives the store counters; nil allocates a private set.
	Metrics *Metrics
}

// An HTTPStore is the worker-side client of the coordinator's blob API;
// it implements pipeline.CacheStore with graceful degradation. Every
// operation is one attempt, gated by a circuit breaker — no retries: the
// fallback (run locally, hit the local disk cache) is cheaper than
// waiting out a flaky store, and the breaker's deterministic half-open
// schedule re-probes a recovered store soon enough.
type HTTPStore struct {
	hc      *http.Client
	timeout time.Duration
	breaker *resilience.Breaker
	ob      *obs.Observer
	metrics *Metrics

	mu   sync.Mutex
	base string

	degraded atomic.Bool // sticky: any operation ever degraded
}

// NewHTTPStore builds a store client from opts.
func NewHTTPStore(opts HTTPStoreOptions) *HTTPStore {
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = &Metrics{}
	}
	hc := &http.Client{}
	if opts.Transport != nil {
		hc.Transport = opts.Transport
	}
	return &HTTPStore{
		hc:      hc,
		timeout: opts.Timeout,
		breaker: resilience.NewBreaker(opts.Breaker),
		ob:      opts.Obs,
		metrics: opts.Metrics,
		base:    strings.TrimSuffix(opts.Base, "/"),
	}
}

// SetBase points the store at a server; an empty base disables it (every
// Get is a miss, every Put a no-op).
func (s *HTTPStore) SetBase(base string) {
	s.mu.Lock()
	s.base = strings.TrimSuffix(base, "/")
	s.mu.Unlock()
}

// Base returns the current server prefix ("" when detached).
func (s *HTTPStore) Base() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// Degraded reports whether any operation has ever fallen back — the
// sticky flag workers attach to their completion reports, so the
// coordinator can surface a degraded-but-complete sweep.
func (s *HTTPStore) Degraded() bool { return s.degraded.Load() }

// Breaker exposes the endpoint's circuit breaker (metrics, tests).
func (s *HTTPStore) Breaker() *resilience.Breaker { return s.breaker }

// degrade records one operation that fell back to the local cache.
func (s *HTTPStore) degrade(op, key string, err error) {
	s.metrics.StoreDegraded.Add(1)
	s.degraded.Store(true)
	fields := map[string]string{"op": op, "key": key}
	if err != nil {
		fields["err"] = err.Error()
	}
	s.ob.Emit("dist.store.degraded", fields)
}

// Get implements pipeline.CacheStore: fetch and verify the blob for key.
// Every failure mode degrades to (nil, false, nil) — a miss the engine
// serves locally — never an error.
func (s *HTTPStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	base := s.Base()
	if base == "" {
		return nil, false, nil
	}
	if !s.breaker.Allow() {
		s.degrade("get", key, fmt.Errorf("circuit open"))
		return nil, false, nil
	}
	opCtx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(opCtx, http.MethodGet, base+"/v1/blob/"+key, nil)
	if err != nil {
		s.breaker.Record(false)
		s.degrade("get", key, err)
		return nil, false, nil
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.breaker.Record(false)
		s.degrade("get", key, err)
		return nil, false, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// A miss is a healthy answer: the store is up, the blob just is
		// not there yet.
		s.breaker.Record(true)
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		s.breaker.Record(false)
		s.degrade("get", key, fmt.Errorf("HTTP %d", resp.StatusCode))
		return nil, false, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		s.breaker.Record(false)
		s.degrade("get", key, err)
		return nil, false, nil
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), resp.Header.Get(blobHashHeader); got != want {
		// Truncated or damaged in transit; trusting it would trade a warm
		// hit for a wrong artifact.
		s.breaker.Record(false)
		s.degrade("get", key, fmt.Errorf("blob hash mismatch: got %.16s, want %.16s", got, want))
		return nil, false, nil
	}
	s.breaker.Record(true)
	s.metrics.StoreFetches.Add(1)
	return data, true, nil
}

// Put implements pipeline.CacheStore: upload the blob for key,
// best-effort. Failures degrade silently (counted, flight-recorded) —
// the artifact is already safe in the local cache.
func (s *HTTPStore) Put(ctx context.Context, key string, data []byte) error {
	base := s.Base()
	if base == "" {
		return nil
	}
	if !s.breaker.Allow() {
		s.degrade("put", key, fmt.Errorf("circuit open"))
		return nil
	}
	opCtx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(opCtx, http.MethodPut, base+"/v1/blob/"+key, bytes.NewReader(data))
	if err != nil {
		s.breaker.Record(false)
		s.degrade("put", key, err)
		return nil
	}
	sum := sha256.Sum256(data)
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(blobHashHeader, hex.EncodeToString(sum[:]))
	resp, err := s.hc.Do(req)
	if err != nil {
		s.breaker.Record(false)
		s.degrade("put", key, err)
		return nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		s.breaker.Record(false)
		s.degrade("put", key, fmt.Errorf("HTTP %d", resp.StatusCode))
		return nil
	}
	s.breaker.Record(true)
	s.metrics.StoreUploads.Add(1)
	return nil
}
