package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"commchar/internal/apps"
	"commchar/internal/ccnuma"
	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/spasm"
)

// syntheticRaw builds a deterministic fake acquisition result: enough
// messages for the analyze stage to fit distributions, no simulator run.
func syntheticRaw(procs int) *core.RawRun {
	var log []mesh.Delivery
	t := sim.Time(0)
	id := int64(0)
	for i := 0; i < 60; i++ {
		t += sim.Time(500 + 137*(i%7))
		id++
		src := i % procs
		dst := (i + 1 + i%3) % procs
		if dst == src {
			dst = (dst + 1) % procs
		}
		log = append(log, mesh.Delivery{
			Message: mesh.Message{ID: id, Src: src, Dst: dst, Bytes: 32 + 8*(i%4), Inject: t},
			End:     t + 400,
			Latency: 400,
			Blocked: sim.Duration(10 * (i % 5)),
			Hops:    1 + i%3,
		})
	}
	return &RawRun{Procs: procs, Elapsed: t + 1000, MeanUtil: 0.125, Events: 4321, Log: log}
}

// RawRun is aliased locally so the helper reads naturally.
type RawRun = core.RawRun

// stubEngine returns an engine whose acquisition is replaced by a counter
// around syntheticRaw, so cache/dedup behavior is observable without
// simulation.
func stubEngine(t *testing.T, opts Options) (*Engine, *int) {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var mu sync.Mutex
	e.runStages = func(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		st := ccnuma.Stats{Upgrades: 7, SilentUpgrades: 3}
		return &stageResult{
			raw:      syntheticRaw(spec.Procs),
			memStats: &st,
			profiles: []spasm.Profile{{Compute: 100, Memory: 20, Sync: 5, End: 125}},
			faultCounters: fault.Counters{
				Drops: 2, Corruptions: 1,
			},
		}, nil
	}
	return e, &calls
}

func TestKeyDistinguishesEveryField(t *testing.T) {
	base := RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall}
	variants := map[string]RunSpec{
		"app":      {App: "Nbody", Procs: 8, Scale: apps.ScaleSmall},
		"procs":    {App: "IS", Procs: 16, Scale: apps.ScaleSmall},
		"scale":    {App: "IS", Procs: 8, Scale: apps.ScaleFull},
		"cycle":    {App: "IS", Procs: 8, Scale: apps.ScaleSmall, CycleTime: 1 * sim.Nanosecond},
		"cache":    {App: "IS", Procs: 8, Scale: apps.ScaleSmall, CacheBytes: 8 << 10},
		"vcs":      {App: "IS", Procs: 8, Scale: apps.ScaleSmall, VirtualChannels: 4},
		"mesh":     {App: "IS", Procs: 8, Scale: apps.ScaleSmall, Width: 8, Height: 1},
		"barrier":  {App: "IS", Procs: 8, Scale: apps.ScaleSmall, Barrier: spasm.BarrierTree},
		"protocol": {App: "IS", Procs: 8, Scale: apps.ScaleSmall, Protocol: ccnuma.MESI},
		"routing":  {App: "IS", Procs: 8, Scale: apps.ScaleSmall, Routing: mesh.RoutingWestFirst},
		"faults":   {App: "IS", Procs: 8, Scale: apps.ScaleSmall, Faults: "drop:0.01"},
		"seed":     {App: "IS", Procs: 8, Scale: apps.ScaleSmall, Faults: "drop:0.01", FaultSeed: 9},
		"sp2":      {App: "IS", Procs: 8, Scale: apps.ScaleSmall, UseSP2: true},
	}
	baseKey, err := base.Key("")
	if err != nil {
		t.Fatal(err)
	}
	again, _ := base.Key("")
	if baseKey != again {
		t.Fatal("key not deterministic")
	}
	seen := map[string]string{"base": baseKey}
	for name, v := range variants {
		k, err := v.Key("")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, pk := range seen {
			if k == pk {
				t.Fatalf("variant %q collides with %q", name, prev)
			}
		}
		seen[name] = k
	}
	salted, err := base.Key("other-code-version")
	if err != nil {
		t.Fatal(err)
	}
	if salted == baseKey {
		t.Fatal("salt does not change the key")
	}
}

func TestKeyIgnoresWatchdog(t *testing.T) {
	a := RunSpec{App: "IS", Procs: 8}
	b := a
	b.Watchdog = sim.Watchdog{MaxEvents: 5}
	ka, _ := a.Key("")
	kb, _ := b.Key("")
	if ka != kb {
		t.Fatal("watchdog must not be part of the cache key (failed runs are never cached)")
	}
}

func TestValidateRejectsMalformedSpecs(t *testing.T) {
	bad := []struct {
		spec  RunSpec
		usage bool // a machine shape a user typed: exit 2
	}{
		{RunSpec{Procs: 8}, false},                                // neither App nor Trace
		{RunSpec{App: "IS", Procs: 1}, true},                      // too few processors
		{RunSpec{App: "IS", Procs: 8, Width: 4}, true},            // width without height
		{RunSpec{App: "IS", Procs: 8, Width: 2, Height: 2}, true}, // mesh too small
	}
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bad {
		_, err := e.Run(b.spec)
		if err == nil {
			t.Fatalf("spec %d accepted: %+v", i, b.spec)
		}
		if b.usage && cli.ExitCode(err) != cli.ExitUsage {
			t.Fatalf("spec %d: exit code %d, want %d (%v)", i, cli.ExitCode(err), cli.ExitUsage, err)
		}
	}
}

func TestMemoryCacheHit(t *testing.T) {
	e, calls := stubEngine(t, Options{Parallel: 2})
	spec := RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}
	a, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceRun {
		t.Fatalf("first run source = %q", a.Source)
	}
	b, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second run did not hit the in-memory cache")
	}
	if *calls != 1 {
		t.Fatalf("acquisition ran %d times", *calls)
	}
	if got := e.Metrics().MemoryHits.Load(); got != 1 {
		t.Fatalf("MemoryHits = %d", got)
	}
}

func TestConcurrentIdenticalSpecsDeduplicate(t *testing.T) {
	e, err := New(Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	var mu sync.Mutex
	e.runStages = func(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		close(started)
		<-release
		return &stageResult{raw: syntheticRaw(spec.Procs)}, nil
	}

	spec := RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}
	const waiters = 5
	arts := make([]*Artifact, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		arts[0], _ = e.Run(spec)
	}()
	<-started // the leader is inside the stub, holding the in-flight slot
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], _ = e.Run(spec)
		}(i)
	}
	// Wait until every follower has registered as a dedup hit (each
	// increments the counter before blocking on the leader's completion).
	for deadline := time.Now().Add(10 * time.Second); ; {
		if e.Metrics().DedupHits.Load() == waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dedup hits = %d, want %d", e.Metrics().DedupHits.Load(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("acquisition ran %d times for %d concurrent identical specs", calls, waiters+1)
	}
	for i, a := range arts {
		if a == nil || a != arts[0] {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
}

func TestRunAllPreservesOrder(t *testing.T) {
	e, _ := stubEngine(t, Options{Parallel: 4})
	specs := []RunSpec{
		{App: "IS", Procs: 4, Scale: apps.ScaleSmall},
		{App: "Nbody", Procs: 4, Scale: apps.ScaleSmall},
		{App: "IS", Procs: 8, Scale: apps.ScaleSmall},
	}
	arts, err := e.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arts {
		if a.Spec.App != specs[i].App || a.Spec.Procs != specs[i].Procs {
			t.Fatalf("slot %d holds %s/%d", i, a.Spec.App, a.Spec.Procs)
		}
	}
}

// sameCharacterization compares two characterizations for deep equality,
// diffing the trace (by CSV content) separately from the analyzed fields.
func sameCharacterization(t *testing.T, fresh, cached *core.Characterization) {
	t.Helper()
	if (fresh.Trace == nil) != (cached.Trace == nil) {
		t.Fatal("trace presence differs between fresh and cached artifacts")
	}
	if fresh.Trace != nil {
		var a, b bytes.Buffer
		if err := fresh.Trace.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := cached.Trace.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("cached trace differs from the fresh one")
		}
	}
	f, c := *fresh, *cached
	f.Trace, c.Trace = nil, nil
	if !reflect.DeepEqual(&f, &c) {
		t.Fatalf("cached characterization differs from fresh:\nfresh:  %+v\ncached: %+v", f, c)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}

	e1, calls1 := stubEngine(t, Options{Parallel: 1, CacheDir: dir})
	fresh, err := e1.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Source != SourceRun || *calls1 != 1 {
		t.Fatalf("cold run: source=%q calls=%d", fresh.Source, *calls1)
	}

	// A second engine on the same directory must serve the artifact from
	// disk without touching the acquisition stage.
	e2, calls2 := stubEngine(t, Options{Parallel: 1, CacheDir: dir})
	cached, err := e2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Source != SourceDisk {
		t.Fatalf("warm run source = %q", cached.Source)
	}
	if *calls2 != 0 {
		t.Fatalf("warm run executed the acquisition stage %d times", *calls2)
	}
	if got := e2.Metrics().DiskHits.Load(); got != 1 {
		t.Fatalf("DiskHits = %d", got)
	}

	sameCharacterization(t, fresh.C, cached.C)
	if !reflect.DeepEqual(fresh.MemStats, cached.MemStats) {
		t.Fatalf("MemStats: fresh %+v cached %+v", fresh.MemStats, cached.MemStats)
	}
	if !reflect.DeepEqual(fresh.Profiles, cached.Profiles) {
		t.Fatalf("Profiles: fresh %+v cached %+v", fresh.Profiles, cached.Profiles)
	}
	if !reflect.DeepEqual(fresh.FaultCounters, cached.FaultCounters) {
		t.Fatalf("FaultCounters: fresh %+v cached %+v", fresh.FaultCounters, cached.FaultCounters)
	}
	if fresh.Key != cached.Key {
		t.Fatalf("keys differ: %s vs %s", fresh.Key, cached.Key)
	}
}

// TestDiskCacheRoundTripReal exercises the disk cache with a genuine
// simulation per strategy — dynamic (Nbody) and static (3D-FFT, which
// carries an application trace) — asserting the cached artifact is
// bit-identical to the fresh one.
func TestDiskCacheRoundTripReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	for _, app := range []string{"Nbody", "3D-FFT"} {
		t.Run(app, func(t *testing.T) {
			dir := t.TempDir()
			spec := RunSpec{App: app, Procs: 4, Scale: apps.ScaleSmall}
			e1, err := New(Options{Parallel: 1, CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := e1.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Source != SourceRun {
				t.Fatalf("cold source = %q", fresh.Source)
			}
			e2, err := New(Options{Parallel: 1, CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			cached, err := e2.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if cached.Source != SourceDisk {
				t.Fatalf("warm source = %q (runs=%d)", cached.Source, e2.Metrics().Runs.Load())
			}
			sameCharacterization(t, fresh.C, cached.C)
		})
	}
}

func TestDiskCacheCorruptionFallsBackToRun(t *testing.T) {
	damage := map[string]func(tb testing.TB, entry []byte) []byte{
		// Cut mid-member: the archive's directory is gone.
		"truncated": func(_ testing.TB, entry []byte) []byte { return entry[:len(entry)/2] },
		// One digit of the delivery log changed in place: the log still
		// parses, so only the member's CRC-32 can tell.
		"log byte flipped": flipLogDigit,
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			spec := RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}
			e1, _ := stubEngine(t, Options{Parallel: 1, CacheDir: dir})
			art, err := e1.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if n := e1.Metrics().DiskCorrupt.Load(); n != 0 {
				t.Fatalf("a cold miss counted %d corrupt entries, want 0", n)
			}
			damageEntry(t, dir, art.Key, fn)

			e2, calls2 := stubEngine(t, Options{Parallel: 1, CacheDir: dir})
			again, err := e2.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if again.Source != SourceRun {
				t.Fatalf("corrupt entry served from %q", again.Source)
			}
			if *calls2 != 1 {
				t.Fatalf("fallback executed %d runs", *calls2)
			}
			if e2.Metrics().DiskHits.Load() != 0 {
				t.Fatal("corrupt entry counted as a disk hit")
			}
			if n := e2.Metrics().DiskCorrupt.Load(); n != 1 {
				t.Fatalf("damaged entry counted %d corrupt entries, want 1", n)
			}

			// The fallback run re-stores a good entry; a third engine hits it.
			e3, calls3 := stubEngine(t, Options{Parallel: 1, CacheDir: dir})
			healed, err := e3.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if healed.Source != SourceDisk || *calls3 != 0 {
				t.Fatalf("repaired entry not served from disk (source=%q calls=%d)", healed.Source, *calls3)
			}
		})
	}
}

// damageEntry rewrites the cache entry of key through fn.
func damageEntry(tb testing.TB, dir, key string, fn func(testing.TB, []byte) []byte) {
	tb.Helper()
	path := filepath.Join(dir, key[:2], key+".zip")
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, fn(tb, data), 0o644); err != nil {
		tb.Fatal(err)
	}
}

func TestDiskCacheMetaCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}
	e1, _ := stubEngine(t, Options{Parallel: 1, CacheDir: dir})
	art, err := e1.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	damageEntry(t, dir, art.Key, func(tb testing.TB, entry []byte) []byte {
		ms := membersOf(tb, entry)
		ms[0].data = []byte("{not json")
		return zipOf(tb, ms)
	})
	e2, calls2 := stubEngine(t, Options{Parallel: 1, CacheDir: dir})
	again, err := e2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != SourceRun || *calls2 != 1 {
		t.Fatalf("corrupt meta served from %q (calls=%d)", again.Source, *calls2)
	}
}

func TestSaltInvalidatesDiskCache(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall}
	e1, _ := stubEngine(t, Options{Parallel: 1, CacheDir: dir, Salt: "code-v1"})
	if _, err := e1.Run(spec); err != nil {
		t.Fatal(err)
	}

	// Same directory, same spec, new code-version salt: the old entry must
	// not be visible.
	e2, calls2 := stubEngine(t, Options{Parallel: 1, CacheDir: dir, Salt: "code-v2"})
	art, err := e2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if art.Source != SourceRun || *calls2 != 1 {
		t.Fatalf("stale-salt entry served from %q (calls=%d)", art.Source, *calls2)
	}

	// And the original salt still hits its own entry.
	e3, calls3 := stubEngine(t, Options{Parallel: 1, CacheDir: dir, Salt: "code-v1"})
	art, err = e3.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if art.Source != SourceDisk || *calls3 != 0 {
		t.Fatalf("original salt missed its entry (source=%q calls=%d)", art.Source, *calls3)
	}
}
