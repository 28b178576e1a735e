package core

import (
	"context"
	"fmt"

	"commchar/internal/coll"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/spasm"
	"commchar/internal/trace"
)

// RawRun is the product of the acquisition stages: the network log and
// run-level metrics of one simulated execution, before statistical
// analysis. It is the value that flows between the pipeline's acquire/log
// stages and the analyze stage.
type RawRun struct {
	Procs    int
	Elapsed  sim.Time
	MeanUtil float64
	Events   int64 // simulation events fired during the run
	Log      []mesh.Delivery
	// Trace is the application-level trace, when the acquisition records
	// one (static strategy); nil otherwise.
	Trace *trace.Trace
	// Cost is the software-overhead model the replay charged (static
	// strategy; nil means zero cost). The collective analysis replays
	// the timeline under the same model to recover idle time exactly.
	Cost trace.CostModel
	// Failures are per-message delivery failures (fault-injected runs).
	Failures []error
}

// Characterize runs the analyze stage on the raw run: the paper's three
// point-to-point attributes, plus — when the trace carries mp's
// collective tag blocks — the collective/asynchronicity characterization.
func (r *RawRun) Characterize(name string, strategy Strategy) (*Characterization, error) {
	c, err := Analyze(name, strategy, r.Log, r.Procs, r.Elapsed, r.MeanUtil)
	if err != nil {
		return nil, err
	}
	c.Trace = r.Trace
	cc, err := coll.Analyze(r.Trace, r.Log, r.Cost, r.Elapsed)
	if err != nil {
		return nil, fmt.Errorf("core: collective analysis of %s: %w", name, err)
	}
	c.Coll = cc
	return c, nil
}

// AcquireSharedMemoryOnContext is the dynamic-strategy acquisition stage
// on a caller-built machine: execute the kernel and collect the network
// log. The machine's simulator polls ctx inside its cycle loop, so a hung
// or runaway kernel is killable mid-execution.
func AcquireSharedMemoryOnContext(ctx context.Context, m *spasm.Machine, run func(m *spasm.Machine) error) (*RawRun, error) {
	m.Sim.SetContext(ctx)
	if err := run(m); err != nil {
		return nil, err
	}
	return &RawRun{
		Procs:    m.Config().Processors,
		Elapsed:  m.Sim.Now(),
		MeanUtil: m.Net.MeanUtilization(),
		Events:   m.Sim.EventsFired(),
		Log:      m.Net.Log(),
		Failures: m.Net.Failures(),
	}, nil
}

// AcquireMessagePassingWith is the static-strategy acquisition stage:
// execute the message-passing program natively on the SP2-like machine,
// with the given collective algorithm family, and return its
// application-level trace (replayed through the mesh by
// ReplayTraceContext).
func AcquireMessagePassingWith(procs int, alg mp.Algorithm, run func(w *mp.World) error) (*trace.Trace, error) {
	cfg := mp.DefaultConfig(procs)
	cfg.Collectives = alg
	w := mp.NewWorld(cfg)
	if err := run(w); err != nil {
		return nil, err
	}
	tr := w.Trace()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReplayTraceContext is the log stage of the static strategy: replay an
// application trace through a mesh, honouring send/receive dependencies,
// under an optional fault injector and watchdog, and collect the network
// log. The trace's rank count is used as the processor count of the run.
// The simulator's cycle loop polls ctx, so a hung or fault-livelocked
// replay is killable; the returned *sim.DeadlockError then carries the
// usual blocked-process diagnostics with the context's error as its cause.
func ReplayTraceContext(ctx context.Context, tr *trace.Trace, cfg mesh.Config, cost trace.CostModel, inj mesh.Injector, wd sim.Watchdog) (*RawRun, error) {
	return ReplayTraceObserved(ctx, tr, cfg, cost, inj, wd, 0, nil)
}

// ReplayTraceObserved is ReplayTraceContext with a simulator progress hook
// installed (see sim.SetProgress): hook receives the simulated clock and
// cumulative event count every `every` fired events, the seam live
// monitoring hangs off. A nil hook (or every <= 0) observes nothing.
func ReplayTraceObserved(ctx context.Context, tr *trace.Trace, cfg mesh.Config, cost trace.CostModel, inj mesh.Injector, wd sim.Watchdog, every int64, hook sim.ProgressFunc) (*RawRun, error) {
	s := sim.New()
	s.SetContext(ctx)
	s.SetProgress(every, hook)
	net := mesh.New(s, cfg)
	if inj != nil {
		net.SetFaults(inj)
	}
	if err := trace.Replay(s, net, tr, cost); err != nil {
		return nil, err
	}
	s.SetWatchdog(wd)
	if err := s.Run(); err != nil {
		return nil, err
	}
	return &RawRun{
		Procs:    tr.Ranks,
		Elapsed:  s.Now(),
		MeanUtil: net.MeanUtilization(),
		Events:   s.EventsFired(),
		Log:      net.Log(),
		Trace:    tr,
		Cost:     cost,
		Failures: net.Failures(),
	}, nil
}

// CharacterizeSharedMemory runs a caller-written shared-memory kernel
// under the dynamic strategy end to end: build the default machine,
// execute the kernel (acquire, cancellable through ctx), characterize the
// network log (analyze). It is the entry point for custom kernels; the
// suite's applications are characterized by pipeline.Engine, which runs
// the same stages on a machine built from its RunSpec.
func CharacterizeSharedMemory(ctx context.Context, name string, procs int, run func(m *spasm.Machine) error) (*Characterization, error) {
	raw, err := AcquireSharedMemoryOnContext(ctx, spasm.NewDefault(procs), run)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return raw.Characterize(name, StrategyDynamic)
}
