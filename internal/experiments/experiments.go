// Package experiments regenerates every table and figure of the paper's
// evaluation section (as reconstructed in DESIGN.md), plus the ablations.
// The same entry points back both the `experiments` command and the
// benchmark harness in bench_test.go, so "go test -bench" reproduces the
// paper end to end.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"commchar/internal/apps"
	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/resilience"
	"commchar/internal/sim"
	"commchar/internal/workload"
)

// Runner drives the evaluation through the run pipeline: independent
// characterization runs are scheduled across the engine's worker pool and
// memoized (in memory and, if the engine has a cache directory, on disk),
// so tables and figures drawing on the same application run it only once —
// across invocations, with a warm disk cache, zero times.
type Runner struct {
	Scale apps.Scale
	eng   *pipeline.Engine
	ctx   context.Context
}

// NewRunner returns a runner at the given scale backed by the given
// engine, whose characterization runs are cancelled with ctx (a SIGINT'd
// tool drains the pipeline instead of dying mid-run). Runners at
// different scales may safely share one engine: the pipeline's cache key
// covers the full spec, scale included.
func NewRunner(ctx context.Context, scale apps.Scale, eng *pipeline.Engine) *Runner {
	return &Runner{Scale: scale, eng: eng, ctx: ctx}
}

// spec builds the standard-machine spec for a suite application.
func (r *Runner) spec(name string, procs int) pipeline.RunSpec {
	return pipeline.RunSpec{App: name, Procs: procs, Scale: r.Scale}
}

// artifacts fans the specs out across the engine's worker pool and returns
// them in order: the parallel core of every table and figure.
func (r *Runner) artifacts(specs ...pipeline.RunSpec) ([]*pipeline.Artifact, error) {
	arts, err := r.eng.RunAll(r.ctx, specs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return arts, nil
}

func (r *Runner) characterize(name string, procs int) (*core.Characterization, error) {
	art, err := r.eng.RunContext(r.ctx, r.spec(name, procs))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return art.C, nil
}

func (r *Runner) characterizeAll(names []string, procs int) ([]*core.Characterization, error) {
	specs := make([]pipeline.RunSpec, len(names))
	for i, n := range names {
		specs[i] = r.spec(n, procs)
	}
	arts, err := r.artifacts(specs...)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Characterization, len(arts))
	for i, a := range arts {
		out[i] = a.C
	}
	return out, nil
}

var (
	sharedNames = []string{"1D-FFT", "IS", "Cholesky", "Nbody", "Maxflow"}
	mpNames     = []string{"3D-FFT", "MG"}
)

// Table1 prints the application-suite summary: the paper's workload table.
func (r *Runner) Table1(w io.Writer, procs int) error {
	cs, err := r.characterizeAll(append(append([]string{}, sharedNames...), mpNames...), procs)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Table 1: application suite (%d processors)", procs),
		Columns: []string{"Application", "Strategy", "Messages", "TotalKB", "SimTime(ms)", "MeanLatency(ns)"},
	}
	for _, c := range cs {
		t.AddRow(c.Name, string(c.Strategy),
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%.1f", float64(c.TotalBytes)/1024),
			fmt.Sprintf("%.3f", float64(c.Elapsed)/1e6),
			fmt.Sprintf("%.0f", c.MeanLatencyNS))
	}
	t.Render(w)
	return nil
}

// Table2 prints the shared-memory inter-arrival fits: the headline result.
func (r *Runner) Table2(w io.Writer, procs int) error {
	cs, err := r.characterizeAll(sharedNames, procs)
	if err != nil {
		return err
	}
	report.TemporalTable(
		fmt.Sprintf("Table 2: message inter-arrival time fits, shared memory (dynamic strategy, %d processors)", procs),
		cs).Render(w)
	return nil
}

// Table3 prints the message-passing inter-arrival fits.
func (r *Runner) Table3(w io.Writer, procs int) error {
	cs, err := r.characterizeAll(mpNames, procs)
	if err != nil {
		return err
	}
	report.TemporalTable(
		fmt.Sprintf("Table 3: message inter-arrival time fits, message passing (static strategy, %d processors)", procs),
		cs).Render(w)
	return nil
}

// Table4 prints the volume attribute for every application.
func (r *Runner) Table4(w io.Writer, procs int) error {
	cs, err := r.characterizeAll(append(append([]string{}, sharedNames...), mpNames...), procs)
	if err != nil {
		return err
	}
	report.VolumeTable(
		fmt.Sprintf("Table 4: message volume characteristics (%d processors)", procs), cs).Render(w)
	report.SpatialTable(
		fmt.Sprintf("Table 4b: spatial classification (%d processors)", procs), cs).Render(w)
	return nil
}

// FigureInterarrivalSM renders the empirical-vs-fitted inter-arrival CDF
// for every shared-memory application.
func (r *Runner) FigureInterarrivalSM(w io.Writer, procs int) error {
	cs, err := r.characterizeAll(sharedNames, procs)
	if err != nil {
		return err
	}
	for _, c := range cs {
		best := c.BestAggregate()
		if best == nil {
			continue
		}
		samples := c.AggregateGaps()
		report.CDFOverlay(w,
			fmt.Sprintf("Figure: %s inter-arrival CDF, measured vs %s (R²=%.4f)", c.Name, best.Dist, best.R2),
			samples, best.Dist, 16, 40)
		fmt.Fprintln(w)
	}
	return nil
}

// FigureSpatialSM renders the per-source spatial figures (p0 and p1, 8
// processors, as in the paper) for the shared-memory applications.
func (r *Runner) FigureSpatialSM(w io.Writer) error {
	cs, err := r.characterizeAll(sharedNames, 8)
	if err != nil {
		return err
	}
	for _, c := range cs {
		fmt.Fprintf(w, "--- %s ---\n", c.Name)
		report.SpatialFigure(w, c, 0, 40)
		report.SpatialFigure(w, c, 1, 40)
		fmt.Fprintln(w)
	}
	return nil
}

// FigureSpatialMP renders the spatial figures for the message-passing
// applications (the 3D-FFT broadcast-root favorite, MG nearest-neighbour).
func (r *Runner) FigureSpatialMP(w io.Writer) error {
	cs, err := r.characterizeAll(mpNames, 8)
	if err != nil {
		return err
	}
	for _, c := range cs {
		fmt.Fprintf(w, "--- %s ---\n", c.Name)
		report.SpatialFigure(w, c, 0, 40)
		report.SpatialFigure(w, c, 1, 40)
		fmt.Fprintln(w)
	}
	return nil
}

// FigureVolumeMP renders the message-volume distributions for the
// message-passing applications.
func (r *Runner) FigureVolumeMP(w io.Writer) error {
	cs, err := r.characterizeAll(mpNames, 8)
	if err != nil {
		return err
	}
	for _, c := range cs {
		report.VolumeFigure(w, c, 40)
		fmt.Fprintln(w)
	}
	return nil
}

// FigureSyntheticValidation regenerates traffic from the fitted models of
// 1D-FFT and IS and compares network metrics against the original runs —
// the methodology's payoff experiment.
func (r *Runner) FigureSyntheticValidation(w io.Writer, procs int) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure: synthetic-traffic validation (%d processors)", procs),
		Columns: []string{"Application", "Metric", "Original", "Synthetic", "RelErr"},
	}
	for _, name := range []string{"1D-FFT", "IS"} {
		c, err := r.characterize(name, procs)
		if err != nil {
			return err
		}
		v, err := workload.Validate(c, 0xC0FFEE)
		if err != nil {
			return fmt.Errorf("experiments: validate %s: %w", name, err)
		}
		t.AddRow(name, "msg rate (msg/us)",
			fmt.Sprintf("%.4f", v.Original.MessageRate),
			fmt.Sprintf("%.4f", v.Synthetic.MessageRate),
			fmt.Sprintf("%.3f", v.RateErr))
		t.AddRow("", "mean latency (ns)",
			fmt.Sprintf("%.0f", v.Original.MeanLatencyNS),
			fmt.Sprintf("%.0f", v.Synthetic.MeanLatencyNS),
			fmt.Sprintf("%.3f", v.LatencyErr))
		t.AddRow("", "mean link util",
			fmt.Sprintf("%.4f", v.Original.MeanUtilization),
			fmt.Sprintf("%.4f", v.Synthetic.MeanUtilization),
			fmt.Sprintf("%.3f", v.UtilErr))
	}
	t.Render(w)
	return nil
}

// AblationContention runs IS on the standard mesh and on a
// contention-free (very fast) mesh and compares blocking and the fitted
// temporal model: how much the network itself shapes the "workload". Both
// variants run concurrently through the pipeline.
func (r *Runner) AblationContention(w io.Writer, procs int) error {
	slowSpec, fastSpec := r.spec("IS", procs), r.spec("IS", procs)
	slowSpec.CycleTime = 25 * sim.Nanosecond
	fastSpec.CycleTime = 1 * sim.Nanosecond
	arts, err := r.artifacts(slowSpec, fastSpec)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: mesh contention effect on IS (%d processors)", procs),
		Columns: []string{"Mesh", "Messages", "MeanLatency(ns)", "MeanBlocked(ns)", "MeanGap(us)", "BestFit", "R2"},
	}
	for i, label := range []string{"25ns/flit (standard)", "1ns/flit (near-zero contention)"} {
		c := arts[i].C
		name, _, r2 := report.FitRow(c.BestAggregate())
		t.AddRow(label,
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%.0f", c.MeanLatencyNS),
			fmt.Sprintf("%.0f", c.MeanBlockedNS),
			fmt.Sprintf("%.2f", c.Aggregate.Summary.Mean/1000),
			name, r2)
	}
	t.Render(w)
	return nil
}

// AblationVirtualChannels drives hot-spot synthetic traffic through the
// mesh with 1 and 4 virtual channels (cf. Kumar & Bhuyan [20]) and
// compares latency and blocking.
func (r *Runner) AblationVirtualChannels(w io.Writer) error {
	run := func(vcs int) (workload.Metrics, error) {
		s := sim.New()
		cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
		cfg.VirtualChannels = vcs
		net := mesh.New(s, cfg)
		st := sim.NewStream(0x7C)
		// 30% hot-spot to node 0, remainder uniform, bursty arrivals.
		for src := 1; src < 16; src++ {
			t := sim.Time(0)
			for i := 0; i < 400; i++ {
				t += sim.Time(st.Exponential(2000)) + 1
				dst := 0
				if st.Float64() > 0.3 {
					dst = st.IntN(16)
					if dst == src {
						dst = (dst + 1) % 16
					}
				}
				if dst == src {
					continue
				}
				net.Inject(mesh.Message{
					ID: net.NextID(), Src: src, Dst: dst,
					Bytes: 40, Inject: t,
				}, nil)
			}
		}
		if err := s.Run(); err != nil {
			return workload.Metrics{}, err
		}
		return workload.MeasureLog(net.Log(), s.Now(), net.MeanUtilization()), nil
	}
	t := &report.Table{
		Title:   "Ablation: virtual channels under 30% hot-spot traffic (16 nodes)",
		Columns: []string{"VCs", "Messages", "MeanLatency(ns)", "MeanBlocked(ns)", "MeanUtil"},
	}
	for _, vcs := range []int{1, 2, 4} {
		m, err := run(vcs)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", vcs),
			fmt.Sprintf("%d", m.Messages),
			fmt.Sprintf("%.0f", m.MeanLatencyNS),
			fmt.Sprintf("%.0f", m.MeanBlockedNS),
			fmt.Sprintf("%.4f", m.MeanUtilization))
	}
	t.Render(w)
	return nil
}

// AblationCacheGeometry reruns 1D-FFT with different cache sizes and shows
// how cache capacity changes the message generation rate — the coupling
// between memory-system and network workload. All variants run
// concurrently through the pipeline.
func (r *Runner) AblationCacheGeometry(w io.Writer, procs int) error {
	sizesKB := []int{8, 64, 512}
	specs := make([]pipeline.RunSpec, len(sizesKB))
	for i, kb := range sizesKB {
		specs[i] = r.spec("1D-FFT", procs)
		specs[i].CacheBytes = kb << 10
	}
	arts, err := r.artifacts(specs...)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: cache size effect on 1D-FFT message generation (%d processors)", procs),
		Columns: []string{"Cache", "Messages", "MsgRate(msg/us)", "MeanGap(us)", "BestFit"},
	}
	for i, kb := range sizesKB {
		c := arts[i].C
		name, _, _ := report.FitRow(c.BestAggregate())
		rate := float64(c.Messages) / (float64(c.Elapsed) / 1000)
		t.AddRow(fmt.Sprintf("%dKB", kb),
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("%.2f", c.Aggregate.Summary.Mean/1000),
			name)
	}
	t.Render(w)
	return nil
}

// Step is one regenerable unit of the evaluation: a table, figure, or
// ablation. Key is the short selector used by the -only flag.
type Step struct {
	Name string
	Key  string
	Run  func(w io.Writer) error
}

// Steps returns every table, figure, and ablation of the evaluation, in
// presentation order.
func (r *Runner) Steps(procs int) []Step {
	return []Step{
		{"Table 1", "Table 1", func(w io.Writer) error { return r.Table1(w, procs) }},
		{"Table 2", "Table 2", func(w io.Writer) error { return r.Table2(w, procs) }},
		{"Table 3", "Table 3", func(w io.Writer) error { return r.Table3(w, procs) }},
		{"Table 4", "Table 4", func(w io.Writer) error { return r.Table4(w, procs) }},
		{"Table 5", "Table 5", func(w io.Writer) error { return r.Table5(w, procs) }},
		{"Table 6", "Table 6", func(w io.Writer) error { return r.Table6(w, procs) }},
		{"Table 7", "Table 7", func(w io.Writer) error { return r.Table7(w, procs) }},
		{"Figure: inter-arrival CDFs", "interarrival", func(w io.Writer) error { return r.FigureInterarrivalSM(w, procs) }},
		{"Figure: spatial (shared memory)", "spatial-sm", func(w io.Writer) error { return r.FigureSpatialSM(w) }},
		{"Figure: spatial (message passing)", "spatial-mp", func(w io.Writer) error { return r.FigureSpatialMP(w) }},
		{"Figure: volume (message passing)", "volume-mp", func(w io.Writer) error { return r.FigureVolumeMP(w) }},
		{"Figure: generation rate over time", "rate-over-time", func(w io.Writer) error { return r.FigureRateOverTime(w, procs) }},
		{"Figure: synthetic validation", "validation", func(w io.Writer) error { return r.FigureSyntheticValidation(w, procs) }},
		{"Figure: latency vs offered load", "latency-load", func(w io.Writer) error { return r.FigureLatencyLoad(w, procs) }},
		{"Figure: analytic model validation", "analytic", func(w io.Writer) error { return r.FigureAnalyticModel(w, procs) }},
		{"Ablation: contention", "ablation-contention", func(w io.Writer) error { return r.AblationContention(w, procs) }},
		{"Ablation: virtual channels", "ablation-vc", func(w io.Writer) error { return r.AblationVirtualChannels(w) }},
		{"Ablation: cache geometry", "ablation-cache", func(w io.Writer) error { return r.AblationCacheGeometry(w, procs) }},
		{"Ablation: barrier algorithm", "ablation-barrier", func(w io.Writer) error { return r.AblationBarrier(w, procs) }},
		{"Ablation: topology", "ablation-topology", func(w io.Writer) error { return r.AblationTopology(w) }},
		{"Ablation: coherence protocol", "ablation-protocol", func(w io.Writer) error { return r.AblationProtocol(w, procs) }},
		{"Ablation: routing algorithm", "ablation-routing", func(w io.Writer) error { return r.AblationRouting(w, procs) }},
	}
}

// StepFailure records one failed step of a sweep.
type StepFailure struct {
	Name string
	Err  error
}

// SweepError aggregates the failures of a sweep that kept going: the
// successful steps' output was already emitted, and this names what was
// lost.
type SweepError struct {
	Failed []StepFailure
	Total  int
}

func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d steps failed:", len(e.Failed), e.Total)
	for _, f := range e.Failed {
		fmt.Fprintf(&b, "\n  %s: %v", f.Name, f.Err)
	}
	return b.String()
}

// Degraded marks a partially successful sweep (see cli.ExitCode): some
// steps emitted their results, the named ones did not. A sweep where
// every step failed is a plain failure, not a degraded success.
func (e *SweepError) Degraded() bool { return len(e.Failed) < e.Total }

// RunSteps runs each step under a panic recovery boundary, cooperative
// cancellation, and a failure policy. The context is checked between
// steps (and every step's runs observe it through the runner); once it is
// cancelled the sweep stops and reports ctx.Err, so an interrupted tool
// exits as cancelled, not as a cascade of step failures. Without
// stopOnFailure the sweep keeps going past failures, so one broken
// experiment cannot suppress the rest of its results, and returns a
// *SweepError naming the failed steps; with it the sweep stops at the
// first failed step.
func RunSteps(ctx context.Context, w io.Writer, steps []Step, stopOnFailure bool) error {
	var failed []StepFailure
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n================ %s ================\n", s.Name)
		err := resilience.Protect(func() error { return s.Run(w) })
		if err != nil {
			if ctx.Err() != nil {
				// The step failed because the sweep was cancelled out
				// from under it; report the interruption, not the step.
				return ctx.Err()
			}
			if stopOnFailure {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			fmt.Fprintf(w, "FAILED: %v (continuing)\n", err)
			failed = append(failed, StepFailure{Name: s.Name, Err: err})
		}
	}
	if len(failed) > 0 {
		return &SweepError{Failed: failed, Total: len(steps)}
	}
	return nil
}
