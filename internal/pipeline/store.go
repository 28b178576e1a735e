package pipeline

import (
	"context"
	"io"
)

// A CacheStore is a shared, remote artifact cache: a content-addressed
// blob store keyed by the spec's cache key, holding artifact
// serializations (MarshalArtifact), the same bytes as a disk cache
// entry. Where the disk cache makes warm hits per-process, a CacheStore
// makes them fleet-wide — one worker's finished run becomes every
// worker's warm hit (see dist.HTTPStore, backed by the coordinator's
// /v1/blob/{key} endpoint).
//
// The store is strictly best-effort. The engine reads through it after a
// disk miss and writes behind it after a fresh run, but never depends on
// it: an unreachable, slow, or corrupt store degrades the run to the
// local path (counted and flight-recorded, not failed). Implementations
// are expected to swallow transport-level failures the same way —
// returning ok=false rather than an error — and to guard themselves with
// a circuit breaker so a dead store costs a nil check, not a connect
// timeout per spec. Any error that does escape is still treated as a
// miss.
type CacheStore interface {
	// Get fetches the blob for key; ok reports a verified hit. A miss,
	// an unreachable store, and a failed integrity check are all
	// (false, nil); err is reserved for failures worth surfacing in
	// metrics beyond the store's own.
	Get(ctx context.Context, key string) (data []byte, ok bool, err error)
	// Put uploads the blob for key. Best-effort: the engine calls it
	// write-behind (asynchronously) and only counts errors.
	Put(ctx context.Context, key string, data []byte) error
}

// storeGet reads through the shared store after a disk miss: on a
// verified hit the blob is decoded, written as is into the local disk
// cache (so the next hit is local), and served as the artifact. Every
// failure mode — miss, degraded store, undecodable blob — returns
// (nil, false) and the caller falls back to executing the spec.
func (e *Engine) storeGet(ctx context.Context, spec RunSpec, key, track string) (*Artifact, bool) {
	if e.store == nil {
		return nil, false
	}
	ssp := e.obs.StartSpan("engine", track, "cache", "store-lookup")
	data, ok, err := e.store.Get(ctx, key)
	ssp.End()
	if err != nil {
		e.metrics.StoreErrors.Add(1)
		e.obs.Emit("store.error", map[string]string{"spec": track, "err": err.Error()})
		return nil, false
	}
	if !ok {
		return nil, false
	}
	art, err := UnmarshalArtifact(data, spec, key)
	if err != nil {
		// The transport hash matched, so the blob decodes-but-disagrees:
		// a version-skewed or internally inconsistent serialization.
		// Degrade to a local run; never trust a partial decode.
		e.metrics.StoreErrors.Add(1)
		e.obs.Emit("store.corrupt", map[string]string{"spec": track, "err": err.Error()})
		return nil, false
	}
	art.Source = SourceStore
	e.metrics.StoreHits.Add(1)
	e.obs.Instant("engine", track, "cache", "store-hit", nil)
	e.obs.Emit("cache.hit", map[string]string{"spec": track, "level": "store"})
	if e.disk != nil {
		if serr := e.disk.store(key, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); serr != nil {
			e.metrics.DiskStoreErrors.Add(1)
		}
	}
	return art, true
}

// storePut writes a freshly executed artifact behind to the shared
// store, asynchronously: the run's caller never waits on the upload, and
// a failed upload costs a counter, not the sweep. Close drains the
// in-flight uploads.
func (e *Engine) storePut(spec RunSpec, key, track string, art *Artifact) {
	if e.store == nil {
		return
	}
	data, err := MarshalArtifact(art)
	if err != nil {
		e.metrics.StorePutErrors.Add(1)
		e.obs.Emit("store.put.error", map[string]string{"spec": track, "err": err.Error()})
		return
	}
	e.storeWG.Add(1)
	go func() {
		defer e.storeWG.Done()
		// The upload outlives the run's context on purpose: the artifact
		// is already safe locally, and cancelling a write-behind because
		// its spec finished would starve the fleet of exactly the blobs
		// it wants. Close drains this WaitGroup, bounding the detachment.
		//lint:allow ctxflow write-behind uploads deliberately outlive the run ctx; Close drains them
		if err := e.store.Put(context.Background(), key, data); err != nil {
			e.metrics.StorePutErrors.Add(1)
			e.obs.Emit("store.put.error", map[string]string{"spec": track, "err": err.Error()})
			return
		}
		e.metrics.StorePuts.Add(1)
	}()
}
