// Package pipeline is the concurrent, cache-backed run engine behind the
// experiment harness and the cmd/ tools. A RunSpec — application (or
// trace), processor count, scale, machine configuration, fault schedule —
// flows through the methodology's composable stages:
//
//	acquire  execute the application (dynamic strategy) or obtain its
//	         application-level trace (static strategy);
//	log      replay the trace through the mesh, recording deliveries;
//	analyze  run the core characterization over the network log.
//
// The engine schedules independent specs across a bounded worker pool,
// deduplicates concurrent requests for the same spec (singleflight), and
// backs its in-memory artifact cache with an optional content-addressed
// on-disk cache, so repeated invocations skip simulation entirely.
//
// On top of the stages sits a resilience layer (see internal/resilience):
// every run is cooperatively cancellable through a context threaded into
// the simulator's cycle loop, bounded by an optional per-spec deadline,
// and isolated from worker panics (a crash costs one spec, reported as a
// typed *SpecError, never the sweep). A failed run is not retried: every
// run is a pure function of its spec, so a rerun would fail the same way.
// Every finished spec lands in the disk cache the moment it completes, so
// an interrupted sweep rerun over the same cache directory repeats no
// finished work.
//
// Every run owns its simulator, machine, RNG streams, and log; parallel
// execution is therefore bit-for-bit identical to sequential execution (a
// property the experiments test suite enforces).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"commchar/internal/apps"
	"commchar/internal/ccnuma"
	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/obs"
	"commchar/internal/report"
	"commchar/internal/resilience"
	"commchar/internal/sim"
	"commchar/internal/sp2"
	"commchar/internal/spasm"
	"commchar/internal/trace"
)

// Source says where an artifact came from.
type Source string

const (
	// SourceRun is a freshly executed simulation.
	SourceRun Source = "run"
	// SourceMemory is the engine's in-memory artifact cache.
	SourceMemory Source = "memory"
	// SourceDisk is the content-addressed on-disk cache.
	SourceDisk Source = "disk"
	// SourceRemote is an artifact executed by a remote worker (see the
	// Options.Remote executor and internal/dist).
	SourceRemote Source = "remote"
)

// An Executor runs one spec somewhere other than this process's stages —
// typically a fleet of worker processes behind a coordinator (see
// internal/dist). The engine still owns everything around the execution:
// cache lookup and store, singleflight dedup, panic containment, the
// per-spec deadline and the worker-pool bound all apply to remote runs
// exactly as they do to local ones. Execute must return an artifact
// whose contents are byte-identical to what the local stages would have
// produced for the same spec (the determinism invariant makes this
// checkable).
type Executor interface {
	Execute(ctx context.Context, spec RunSpec, key string) (*Artifact, error)
}

// Artifact is the pipeline's product for one spec: the characterization
// plus the machine-level observations the experiments draw on.
type Artifact struct {
	Spec RunSpec
	Key  string
	C    *core.Characterization

	// MemStats are the coherence-protocol counters (dynamic strategy).
	MemStats *ccnuma.Stats
	// Profiles are the per-processor execution profiles (dynamic strategy).
	Profiles []spasm.Profile
	// Failures are per-message delivery failures of fault-injected runs.
	Failures []string
	// FaultCounters are the injector's event counts (fault-injected runs).
	FaultCounters fault.Counters

	Source Source
}

// stageResult is what the acquisition stages hand to analyze.
type stageResult struct {
	raw           *core.RawRun
	memStats      *ccnuma.Stats
	profiles      []spasm.Profile
	faultCounters fault.Counters
}

// Options configures an engine.
type Options struct {
	// Parallel bounds concurrent simulation runs; <= 0 means
	// runtime.GOMAXPROCS(0).
	Parallel int
	// CacheDir enables the content-addressed on-disk cache. Empty
	// disables it.
	CacheDir string
	// Salt is the cache-key code-version salt; empty means DefaultSalt.
	Salt string
	// OnError is the sweep failure policy of RunAll; the zero value is
	// OnErrorContinue (one lost spec does not cancel its siblings).
	OnError OnError
	// SpecTimeout is the per-run deadline applied to every spec; 0
	// means unlimited.
	SpecTimeout time.Duration
	// Remote, when non-nil, executes cache-miss specs through a remote
	// executor (a distributed worker fleet) instead of the local stages.
	// Caching and dedup are unchanged.
	Remote Executor
	// Obs, when non-nil, observes the engine: every stage is traced as a
	// span, the metrics counters are exported through the observer's
	// registry, per-spec progress is tracked, and completed runs
	// contribute their simulated-time message timelines to the Chrome
	// trace. Nil (the default) observes nothing and costs nothing — a
	// traced run's artifacts are byte-identical to an untraced run's.
	Obs *obs.Observer
}

// Engine runs specs through the stages with caching, deduplication, and a
// bounded worker pool. It is safe for concurrent use.
type Engine struct {
	parallel    int
	salt        string
	disk        *diskCache
	metrics     *Metrics
	sem         chan struct{}
	onError     OnError
	specTimeout time.Duration
	remote      Executor

	// obs observes the engine (nil: no observation); clock is the
	// engine's only wall-clock source — obs.System() untraced, a fake in
	// deterministic tests.
	obs   *obs.Observer
	clock obs.Clock
	// Stage-latency histograms and live-simulation gauges, registered on
	// the observer's registry (nil without an observer; all methods on
	// them are nil-safe no-ops).
	histAcquire *obs.Histogram
	histReplay  *obs.Histogram
	histAnalyze *obs.Histogram
	simClock    *obs.Gauge
	simEvents   *obs.Gauge

	mu       sync.Mutex
	mem      map[string]*Artifact
	inflight map[string]*call

	// runStages is the acquisition seam; tests substitute synthetic runs.
	runStages func(ctx context.Context, spec RunSpec, track string) (*stageResult, error)
}

type call struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// New builds an engine. It fails only if the cache directory cannot be
// created.
func New(opts Options) (*Engine, error) {
	var disk *diskCache
	if opts.CacheDir != "" {
		d, err := newDiskCache(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		disk = d
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	salt := opts.Salt
	if salt == "" {
		salt = DefaultSalt
	}
	metrics := &Metrics{}
	e := &Engine{
		parallel:    parallel,
		salt:        salt,
		disk:        disk,
		metrics:     metrics,
		sem:         make(chan struct{}, parallel),
		onError:     opts.OnError,
		specTimeout: opts.SpecTimeout,
		remote:      opts.Remote,
		obs:         opts.Obs,
		clock:       opts.Obs.ClockOrSystem(),
		mem:         map[string]*Artifact{},
		inflight:    map[string]*call{},
	}
	if opts.Obs != nil {
		r := opts.Obs.Registry
		metrics.RegisterWith(r)
		e.histAcquire = r.Histogram("commchar_pipeline_acquire_seconds",
			"wall time of the acquire stage per executed run", nil)
		e.histReplay = r.Histogram("commchar_pipeline_replay_seconds",
			"wall time of the log (trace replay) stage per executed run", nil)
		e.histAnalyze = r.Histogram("commchar_pipeline_analyze_seconds",
			"wall time of the analyze stage per executed run", nil)
		e.simClock = r.Gauge("commchar_sim_clock_ns",
			"most recently reported simulated clock (ns) of an in-flight run")
		e.simEvents = r.Gauge("commchar_sim_events_fired",
			"most recently reported cumulative event count of an in-flight run")
		opts.Obs.HandleDebug("/topoz", topozHandler(metrics))
	}
	e.runStages = e.acquire
	return e, nil
}

// simProgressInterval spaces the live simulator progress reports: once per
// 64Ki fired events is visible on any long replay and free on short ones.
const simProgressInterval = 1 << 16

// simProgress is the sim.ProgressFunc behind the live gauges. With
// parallel runs the gauges show whichever run reported last — a liveness
// peek, not an aggregate (the aggregates are the counters).
func (e *Engine) simProgress(now sim.Time, fired int64) {
	e.simClock.Set(float64(now))
	e.simEvents.Set(float64(fired))
}

// trackName names a spec's trace track and progress row: the human label
// plus a cache-key prefix, so distinct configurations of one application
// stay distinct.
func trackName(spec RunSpec, key string) string {
	if len(key) > 8 {
		key = key[:8]
	}
	return spec.Label() + "#" + key
}

// Metrics returns the engine's counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Run characterizes one spec, serving it from cache when possible and
// joining an identical in-flight run instead of duplicating it.
func (e *Engine) Run(spec RunSpec) (*Artifact, error) {
	//lint:allow ctxflow context-free compatibility wrapper; callers that cannot cancel get a fresh root here, cancellable callers use RunContext
	return e.RunContext(context.Background(), spec)
}

// RunContext is Run under cooperative cancellation: the context is
// threaded through the acquire, log, and analyze stages down into the
// simulator's cycle loop, so a hung or livelocked run is killable, and
// the engine's per-spec deadline (SpecTimeout) bounds the run. A failure — panic, deadline, cancellation, or a simulation
// error — is reported as a *SpecError.
func (e *Engine) RunContext(ctx context.Context, spec RunSpec) (*Artifact, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	key, err := spec.Key(e.salt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		e.metrics.Cancelled.Add(1)
		return nil, err
	}
	track := trackName(spec, key)

	e.mu.Lock()
	if a := e.mem[key]; a != nil {
		e.mu.Unlock()
		e.metrics.MemoryHits.Add(1)
		e.obs.Instant("engine", track, "cache", "memory-hit", nil)
		e.obs.SpecDone(track, string(SourceMemory))
		return a, nil
	}
	if c := e.inflight[key]; c != nil {
		e.mu.Unlock()
		e.metrics.DedupHits.Add(1)
		e.obs.Instant("engine", track, "cache", "dedup-join", nil)
		select {
		case <-c.done:
			return c.art, c.err
		case <-ctx.Done():
			e.metrics.Cancelled.Add(1)
			return nil, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()

	art, runErr := e.execute(ctx, spec, key, track)

	e.mu.Lock()
	delete(e.inflight, key)
	if runErr == nil {
		e.mem[key] = art
	}
	e.mu.Unlock()

	if runErr == nil {
		e.obs.SpecDone(track, string(art.Source))
		e.obs.Emit("spec.done", map[string]string{"spec": track, "source": string(art.Source)})
		if e.obs != nil && art.C != nil {
			// Export the run's simulated-time message timeline into the
			// Chrome trace (built only when tracing — the conversion is
			// not free on huge logs).
			e.obs.AddTraceEvents(report.TimelineEvents(track, art.C.Log)...)
		}
	} else {
		e.obs.SpecFail(track, runErr)
	}

	c.art, c.err = art, runErr
	close(c.done)
	return art, runErr
}

// RunAll characterizes every spec concurrently (bounded by the worker
// pool) under the engine's failure policy and returns the artifacts in
// spec order; the artifact slot of a failed spec is nil. With
// OnErrorContinue (the default) every spec runs to completion regardless
// of sibling failures; if some specs succeeded and some failed, the
// joined failures are wrapped in a *DegradedError so callers (and exit
// codes) can tell a degraded sweep from a clean one. With OnErrorFail the
// first failure cancels the remaining specs; the siblings' collateral
// cancellations are dropped from the report.
func (e *Engine) RunAll(ctx context.Context, specs ...RunSpec) ([]*Artifact, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	arts := make([]*Artifact, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec RunSpec) {
			defer wg.Done()
			art, err := e.RunContext(runCtx, spec)
			if err != nil {
				var se *SpecError
				if errors.As(err, &se) {
					errs[i] = err // already labelled with the spec
				} else {
					errs[i] = fmt.Errorf("%s: %w", spec.Label(), err)
				}
				if e.onError == OnErrorFail {
					cancel()
				}
				return
			}
			arts[i] = art
		}(i, spec)
	}
	wg.Wait()

	externallyCancelled := ctx.Err() != nil
	failed := 0
	var kept []error
	for _, err := range errs {
		if err == nil {
			continue
		}
		failed++
		// Under fail-fast, siblings killed by our own cancel are
		// collateral, not findings; keep them only when the caller's
		// context itself was cancelled.
		if e.onError == OnErrorFail && !externallyCancelled && errors.Is(err, context.Canceled) {
			continue
		}
		kept = append(kept, err)
	}
	if failed == 0 {
		return arts, nil
	}
	joined := errors.Join(kept...)
	if joined == nil {
		joined = errors.Join(errs...)
	}
	if e.onError == OnErrorContinue && failed < len(specs) {
		return arts, &DegradedError{Failed: failed, Total: len(specs), Err: joined}
	}
	return arts, joined
}

// execute produces the artifact for a spec the caches cannot serve,
// applying the resilience layer: worker-slot acquisition and the stages
// are cancellable, the run is bounded by the per-spec deadline, and
// panics are contained. The stages run once.
func (e *Engine) execute(ctx context.Context, spec RunSpec, key, track string) (*Artifact, error) {
	if e.disk != nil {
		lsp := e.obs.StartSpan("engine", track, "cache", "disk-lookup")
		art, err := e.disk.load(key, spec)
		lsp.End()
		if err != nil {
			e.metrics.DiskCorrupt.Add(1)
			e.obs.Emit("cache.corrupt", map[string]string{"spec": track, "err": err.Error()})
		}
		if art != nil {
			e.metrics.DiskHits.Add(1)
			e.obs.Instant("engine", track, "cache", "disk-hit", nil)
			e.obs.Emit("cache.hit", map[string]string{"spec": track, "level": "disk"})
			return art, nil
		}
	}

	e.obs.SpecStage(track, obs.StageQueued)
	qsp := e.obs.StartSpan("engine", track, "queue", "queued")
	select {
	case e.sem <- struct{}{}:
		qsp.End()
	case <-ctx.Done():
		qsp.End()
		e.metrics.Cancelled.Add(1)
		e.metrics.SpecFailures.Add(1)
		return nil, &SpecError{Spec: spec, Key: key, Err: ctx.Err()}
	}
	defer func() { <-e.sem }()

	runCtx := ctx
	if e.specTimeout > 0 {
		var cancelTimeout context.CancelFunc
		runCtx, cancelTimeout = context.WithTimeout(ctx, e.specTimeout)
		defer cancelTimeout()
	}

	rsp := e.obs.StartSpan("engine", track, "run", "run "+spec.Label()).SetArg("key", key)
	var art *Artifact
	err := resilience.Protect(func() (rerr error) {
		art, rerr = e.runOnce(runCtx, spec, key, track)
		return rerr
	})
	rsp.End()
	if err != nil {
		var pe *resilience.PanicError
		if errors.As(err, &pe) {
			e.metrics.Panics.Add(1)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.metrics.Cancelled.Add(1)
		}
		e.metrics.SpecFailures.Add(1)
		e.obs.Emit("spec.failed", map[string]string{"spec": track, "err": err.Error()})
		return nil, &SpecError{Spec: spec, Key: key, Err: err}
	}

	if e.disk != nil {
		ssp := e.obs.StartSpan("engine", track, "cache", "disk-store")
		serr := e.disk.store(key, art.encode)
		ssp.End()
		if serr != nil {
			e.metrics.DiskStoreErrors.Add(1)
			e.obs.Emit("cache.store.error", map[string]string{"spec": track, "err": serr.Error()})
		}
	}
	return art, nil
}

// runOnce executes the stages and the analysis exactly once — locally
// through the acquisition stages, or through the remote executor when one
// is configured.
func (e *Engine) runOnce(ctx context.Context, spec RunSpec, key, track string) (*Artifact, error) {
	if e.remote != nil {
		return e.runRemote(ctx, spec, key, track)
	}
	machine, err := spec.Machine()
	if err != nil {
		return nil, err
	}
	res, err := e.runStages(ctx, spec, track)
	if err != nil {
		return nil, err
	}

	strategy := core.StrategyStatic
	if res.raw.Trace == nil {
		strategy = core.StrategyDynamic
	}
	_, stop := e.stage(track, obs.StageAnalyze, &e.metrics.AnalyzeNS, e.histAnalyze)
	c, err := res.raw.Characterize(spec.Label(), strategy)
	stop()
	if err != nil {
		return nil, err
	}

	e.metrics.Runs.Add(1)
	e.metrics.SimEvents.Add(res.raw.Events)
	e.metrics.SimTimeNS.Add(int64(res.raw.Elapsed))
	topo := machine.Topology.String()
	e.metrics.topoRuns.Add(topo, 1)
	e.metrics.topoMsgs.Add(topo, int64(len(res.raw.Log)))
	e.metrics.topoSimNS.Add(topo, int64(res.raw.Elapsed))
	if c.Coll != nil {
		for _, om := range c.Coll.PerOp {
			op := om.Op + "/" + om.Algorithm
			e.metrics.collInsts.Add(op, int64(om.Count))
			e.metrics.collMsgs.Add(op, int64(om.Messages))
			e.metrics.collBytes.Add(op, om.Bytes)
		}
	}
	var faulted, failed int64
	for _, d := range res.raw.Log {
		if d.Faults != 0 {
			faulted++
		}
		if d.Status != mesh.StatusDelivered {
			failed++
		}
	}
	e.metrics.Faulted.Add(faulted)
	e.metrics.Failed.Add(failed)

	failures := make([]string, 0, len(res.raw.Failures))
	for _, err := range res.raw.Failures {
		failures = append(failures, err.Error())
	}
	return &Artifact{
		Spec:          spec,
		Key:           key,
		C:             c,
		MemStats:      res.memStats,
		Profiles:      res.profiles,
		Failures:      failures,
		FaultCounters: res.faultCounters,
		Source:        SourceRun,
	}, nil
}

// stage starts the stopwatch of one engine stage: it moves the spec's
// progress row to the stage, opens the stage's span and reads the clock.
// The returned stop reads the clock again, ends the span, and adds the
// elapsed wall time to ns and to hist (nil: no histogram). Both clock
// reads fall inside the span, the order the fake-clock goldens pin. The
// span is returned for callers that annotate it.
func (e *Engine) stage(track, name string, ns *atomic.Int64, hist *obs.Histogram) (*obs.Span, func()) {
	e.obs.SpecStage(track, name)
	sp := e.obs.StartSpan("engine", track, "stage", name)
	start := e.clock.Now()
	return sp, func() {
		d := e.clock.Now().Sub(start)
		sp.End()
		ns.Add(int64(d))
		hist.Observe(d.Seconds())
	}
}

// runRemote delegates one execution to the remote executor. The returned
// artifact is re-labelled with this engine's spec and key (the worker may
// use a different salt locally) and marked SourceRemote; the caller's
// cache store then treats it like any local run.
func (e *Engine) runRemote(ctx context.Context, spec RunSpec, key, track string) (*Artifact, error) {
	sp, stop := e.stage(track, obs.StageRemote, &e.metrics.RemoteNS, nil)
	sp.SetArg("key", key)
	art, err := e.remote.Execute(ctx, spec, key)
	stop()
	if err != nil {
		return nil, err
	}
	a := *art
	a.Spec, a.Key, a.Source = spec, key, SourceRemote
	e.metrics.RemoteRuns.Add(1)
	return &a, nil
}

// faultSchedule parses the spec's fault schedule; every run gets its own
// (schedules carry RNG state, so they must never be shared across runs).
func (e *Engine) faultSchedule(spec RunSpec) (*fault.Schedule, error) {
	if spec.Faults == "" {
		return nil, nil
	}
	return fault.Parse(spec.Faults, spec.FaultSeed)
}

// acquire is the real acquisition path: run the application (or replay the
// given trace) and collect the raw network log.
func (e *Engine) acquire(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
	if spec.Trace != nil {
		return e.acquireReplay(ctx, spec, track)
	}
	wl, err := apps.ByName(spec.Scale, spec.App)
	if err != nil {
		return nil, err
	}
	if wl.Strategy == core.StrategyDynamic {
		return e.acquireDynamic(ctx, spec, track)
	}
	return e.acquireStatic(ctx, spec, track)
}

// acquireDynamic executes a shared-memory application on a machine built
// from the spec (execution-driven strategy). The context reaches the
// machine's simulator, so the kernel is killable mid-execution.
func (e *Engine) acquireDynamic(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
	machine, err := spec.Machine()
	if err != nil {
		return nil, err
	}
	cfg := spasm.DefaultConfig(spec.Procs)
	cfg.Mesh = machine
	cfg.Barrier = spec.Barrier
	cfg.Memory.Protocol = spec.Protocol
	if spec.CacheBytes > 0 {
		cfg.Memory.CacheBytes = spec.CacheBytes
	}
	sched, err := e.faultSchedule(spec)
	if err != nil {
		return nil, err
	}
	m := spasm.New(cfg)
	if sched != nil {
		m.Net.SetFaults(sched)
	}
	if e.obs != nil {
		m.Sim.SetProgress(simProgressInterval, e.simProgress)
	}
	_, stop := e.stage(track, obs.StageAcquire, &e.metrics.AcquireNS, e.histAcquire)
	raw, err := core.AcquireSharedMemoryOnContext(ctx, m, func(m *spasm.Machine) error {
		return apps.RunSharedMemoryOn(m, spec.Scale, spec.App)
	})
	stop()
	if err != nil {
		return nil, err
	}
	res := &stageResult{raw: raw, profiles: m.Profiles()}
	st := m.Mem.Stats()
	res.memStats = &st
	if sched != nil {
		res.faultCounters = sched.Counters()
	}
	return res, nil
}

// acquireStatic executes a message-passing application natively to record
// its trace, then replays the trace through the mesh (trace-driven
// strategy). The native execution is not cancellable (it is direct Go
// code, not a simulation); the replay — where the simulated time goes —
// is.
func (e *Engine) acquireStatic(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
	alg, err := mp.ParseAlgorithm(spec.Collectives)
	if err != nil {
		return nil, err // unreachable after validate
	}
	_, stop := e.stage(track, obs.StageAcquire, &e.metrics.AcquireNS, e.histAcquire)
	tr, err := core.AcquireMessagePassingWith(spec.Procs, alg, func(w *mp.World) error {
		return apps.RunMessagePassingOn(w, spec.Scale, spec.App, spec.Procs)
	})
	stop()
	if err != nil {
		return nil, err
	}
	return e.replay(ctx, spec, track, tr, sp2.Default())
}

// acquireReplay is the acquisition path of an externally supplied trace
// (meshsim): the acquire stage is the trace itself; only the log stage
// runs.
func (e *Engine) acquireReplay(ctx context.Context, spec RunSpec, track string) (*stageResult, error) {
	var cost trace.CostModel
	if spec.UseSP2 {
		cost = sp2.Default()
	}
	return e.replay(ctx, spec, track, spec.Trace, cost)
}

// replay is the shared log stage: drive the trace through the mesh.
func (e *Engine) replay(ctx context.Context, spec RunSpec, track string, tr *trace.Trace, cost trace.CostModel) (*stageResult, error) {
	machine, err := spec.Machine()
	if err != nil {
		return nil, err
	}
	sched, err := e.faultSchedule(spec)
	if err != nil {
		return nil, err
	}
	var inj mesh.Injector
	if sched != nil {
		inj = sched
	}
	var hook sim.ProgressFunc
	var every int64
	if e.obs != nil {
		hook, every = e.simProgress, simProgressInterval
	}
	_, stop := e.stage(track, obs.StageReplay, &e.metrics.ReplayNS, e.histReplay)
	raw, err := core.ReplayTraceObserved(ctx, tr, machine, cost, inj, spec.Watchdog, every, hook)
	stop()
	if err != nil {
		return nil, err
	}
	res := &stageResult{raw: raw}
	if sched != nil {
		res.faultCounters = sched.Counters()
	}
	return res, nil
}
