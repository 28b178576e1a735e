package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// The shared artifact store is a content-addressed blob directory that
// only the coordinator touches. It holds artifact serializations
// (pipeline.MarshalArtifact, byte for byte a disk cache entry) keyed by
// the spec's cache key. The coordinator feeds it from every accepted
// completion and reads it in Execute before it enqueues a spec: a blob
// that decodes against the spec and key is served without a lease, so one
// sweep's finished runs are every later sweep's hits, whatever the fleet.
//
// The store is best-effort. A blob that cannot be read or decoded is
// counted (commchar_dist_store_degraded_total), flight-recorded, and
// leased like a miss; the completion then overwrites it. The sweep stays
// correct and exits degraded (code 3).

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
//lint:allow ctxflow one bounded local mkdir at setup, before the coordinator serves anything
func NewBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: opening blob store: %w", err)
	}
	return &BlobStore{dir: dir}, nil
}

// Get reads the blob for key; ok reports whether it exists.
//
//lint:allow ctxflow one bounded local-file read; Execute watches the ctx across the lease that follows a miss
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

// Len counts the stored blobs.
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
