package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"commchar/internal/apps"
	"commchar/internal/ccnuma"
	"commchar/internal/coll"
	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/sim"
	"commchar/internal/sp2"
	"commchar/internal/spasm"
	"commchar/internal/stats"
	"commchar/internal/workload"
)

// defaultSeed is the seed whose synthetic regenerations oracle.json pins.
const defaultSeed = 1

var workloadNames = []string{"cold-fit", "cold-exec", "synth-warm"}

// plan is one workload's fixed operation list: the cold specs of a pass,
// or the spec synth-warm primes in set-up and the number of regeneration
// ops in a pass.
type plan struct {
	cold  []pipeline.RunSpec
	prime pipeline.RunSpec
	synth int
}

func planFor(name string, short bool) (plan, error) {
	spec := func(app string, scale apps.Scale, procs int, collectives string) pipeline.RunSpec {
		return pipeline.RunSpec{App: app, Scale: scale, Procs: procs, Collectives: collectives}
	}
	small, full := apps.ScaleSmall, apps.ScaleFull
	switch {
	case name == "cold-fit" && short:
		return plan{cold: []pipeline.RunSpec{spec("3D-FFT", small, 4, "binomial")}}, nil
	case name == "cold-fit":
		return plan{cold: []pipeline.RunSpec{
			spec("IS", small, 16, ""),
			spec("MG", full, 16, "binomial"),
			spec("3D-FFT", full, 16, ""),
		}}, nil
	case name == "cold-exec" && short:
		return plan{cold: []pipeline.RunSpec{spec("IS", small, 2, "")}}, nil
	case name == "cold-exec":
		return plan{cold: []pipeline.RunSpec{spec("Maxflow", full, 16, "")}}, nil
	case name == "synth-warm" && short:
		return plan{prime: spec("3D-FFT", small, 4, ""), synth: 2}, nil
	case name == "synth-warm":
		return plan{prime: spec("Maxflow", small, 16, ""), synth: 3}, nil
	}
	return plan{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// opSeed derives the generator seed of a pass's i-th regeneration op from
// the benchmark seed (SplitMix64).
func opSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// bench is one benchmark run: a closed loop of ops from one client, each
// checked against the oracle.
type bench struct {
	plan      plan
	seed      uint64
	work      string // scratch directory inside the checkout
	dirs      int
	oracle    *oracle
	recording bool                // write the oracle instead of checking it
	seen      map[uint64]synthRef // regeneration outputs by seed, this run
	primed    string              // the disk cache set-up wrote; synth-warm loads it

	setup                []time.Duration // set-up times
	setupSpeed, runSpeed float64         // host-speed factors (see host.go)
	attempted            int
	failures             []string
}

// fail records an op that returned an error or failed its output check.
func (b *bench) fail(err error) {
	b.failures = append(b.failures, err.Error())
}

func (b *bench) freshDir() string {
	b.dirs++
	return filepath.Join(b.work, fmt.Sprintf("cache%d", b.dirs))
}

func newEngine(dir string) (*pipeline.Engine, error) {
	return pipeline.New(pipeline.Options{Parallel: 1, CacheDir: dir})
}

// warmUp is the tiny cold spec a cold workload runs in set-up, so the
// heap has grown and the code is paged in before timing starts.
var warmUp = pipeline.RunSpec{App: "3D-FFT", Scale: apps.ScaleSmall, Procs: 4}

// setUpReps is how many times a cold workload sets up, so that setup_s is
// a median.
const setUpReps = 3

// setUp builds an engine on an empty cache directory and runs the warm-up
// spec through it, setUpReps times, for a cold workload; for synth-warm
// it primes the disk cache with one cold run of the primed spec. Each
// set-up's output is checked like an op's.
func (b *bench) setUp() error {
	spec, reps := warmUp, setUpReps
	if b.plan.synth > 0 {
		spec, reps = b.plan.prime, 1
	}
	for range reps {
		dir := b.freshDir()
		t0 := time.Now()
		e, err := newEngine(dir)
		if err != nil {
			return err
		}
		art, err := e.Run(spec)
		b.setup = append(b.setup, time.Since(t0))
		if err != nil {
			return fmt.Errorf("set-up run of %s: %w", spec.Label(), err)
		}
		var buf bytes.Buffer
		report.Render(&buf, art.C)
		if err := b.checkArtifact(spec, art, buf.Bytes(), e.Metrics().SimEvents.Load()); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.primed = dir
	}
	return nil
}

// checkArtifact checks a cold Engine.Run artifact, its rendered report
// and the simulator events the engine counted against the oracle.
func (b *bench) checkArtifact(spec pipeline.RunSpec, art *pipeline.Artifact, rendered []byte, events int64) error {
	return b.checkSpec(spec.String(), specRef{
		Label:    spec.Label(),
		Key:      art.Key,
		Report:   digestBytes(rendered),
		Counters: charCounters(art.C, events, art.MemStats),
		Original: digest(workload.MeasureLog(art.C.Log, art.C.Elapsed, art.C.MeanUtilization)),
	})
}

// passStats is one untraced pass over the op list.
type passStats struct {
	wall  time.Duration // Σ op wall
	msgs  int64         // simulated messages the ops delivered
	alloc uint64        // bytes allocated inside the ops
	ops   []opStats
}

// opStats is what the traced run needs of an untraced op.
type opStats struct {
	wall       time.Duration
	engineNS   int64 // the engine's acquire+replay+analyze timers
	runWall    time.Duration
	cacheBytes int64
	report     string // report digest (cold ops)
}

// pass runs the op list once, untraced.
func (b *bench) pass() passStats {
	var p passStats
	record := func(o opStats, msgs int64, alloc uint64) {
		p.wall += o.wall
		p.msgs += msgs
		p.alloc += alloc
		p.ops = append(p.ops, o)
	}
	for _, spec := range b.plan.cold {
		o, msgs, alloc, err := b.coldOp(spec)
		if err != nil {
			b.fail(fmt.Errorf("%s: %w", spec.Label(), err))
		}
		record(o, msgs, alloc)
	}
	for i := range b.plan.synth {
		o, msgs, alloc, err := b.synthOp(opSeed(b.seed, i))
		if err != nil {
			b.fail(fmt.Errorf("synth op %d: %w", i, err))
		}
		record(o, msgs, alloc)
	}
	return p
}

// coldOp runs one cold spec through a fresh engine on an empty cache
// directory, then renders its report. Only Run and Render are timed.
func (b *bench) coldOp(spec pipeline.RunSpec) (opStats, int64, uint64, error) {
	b.attempted++
	var o opStats
	dir := b.freshDir()
	e, err := newEngine(dir)
	if err != nil {
		return o, 0, 0, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	art, err := e.Run(spec)
	o.runWall = time.Since(t0)
	var buf bytes.Buffer
	if err == nil {
		report.Render(&buf, art.C)
	}
	o.wall = time.Since(t0)
	alloc := totalAlloc() - a0
	if err != nil {
		return o, 0, alloc, err
	}
	m := e.Metrics()
	o.engineNS = m.AcquireNS.Load() + m.ReplayNS.Load() + m.AnalyzeNS.Load()
	o.cacheBytes = dirBytes(dir)
	o.report = digestBytes(buf.Bytes())
	return o, int64(len(art.C.Log)), alloc, b.checkArtifact(spec, art, buf.Bytes(), m.SimEvents.Load())
}

// synthOp opens a fresh engine on the primed cache, loads the
// characterization (a disk hit) and regenerates its traffic with seed.
func (b *bench) synthOp(seed uint64) (opStats, int64, uint64, error) {
	b.attempted++
	var o opStats
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	art, err := b.load()
	var v *workload.Validation
	if err == nil {
		v, err = workload.Validate(art.C, seed)
	}
	o.wall = time.Since(t0)
	alloc := totalAlloc() - a0
	if err != nil {
		return o, 0, alloc, err
	}
	return o, int64(v.Synthetic.Messages), alloc, b.checkSynth(b.plan.prime.String(), seed, v)
}

// load serves the primed spec from the disk cache through a fresh engine;
// anything but a disk hit is an error.
func (b *bench) load() (*pipeline.Artifact, error) {
	e, err := newEngine(b.primed)
	if err != nil {
		return nil, err
	}
	art, err := e.Run(b.plan.prime)
	if err != nil {
		return nil, err
	}
	if m := e.Metrics(); m.Runs.Load() != 0 || m.DiskHits.Load() != 1 {
		return nil, fmt.Errorf("warm load ran %d simulations and hit the disk cache %d times, want 0 and 1", m.Runs.Load(), m.DiskHits.Load())
	}
	return art, nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil // a size is informational; unreadable entries count as 0
	})
	return n
}

// layerAcc accumulates what the per-layer metrics need besides the spans.
type layerAcc struct {
	counters   counters
	hopsSum    float64       // Σ msgs·mean hops
	blockedSum float64       // Σ msgs·mean blocked ns
	refit      time.Duration // wall of the stats.refit spans
	coreSelf   time.Duration // sampled time core.Analyze spent outside its fits
}

func (l *layerAcc) addMesh(msgs int, hops, blocked float64) {
	l.hopsSum += float64(msgs) * hops
	l.blockedSum += float64(msgs) * blocked
}

// tracedPass runs the op list once more, calling the layers the engine
// calls, in the engine's order, with a span around each call. Every op's
// outputs are checked against the untraced pass's.
func (b *bench) tracedPass(t *tracer, untraced passStats, acc *layerAcc) {
	for i, spec := range b.plan.cold {
		b.attempted++
		if err := b.tracedCold(t, spec, untraced.ops[i].report, acc); err != nil {
			b.fail(fmt.Errorf("traced %s: %w", spec.Label(), err))
		}
	}
	for i := range b.plan.synth {
		b.attempted++
		if err := b.tracedSynth(t, opSeed(b.seed, i), acc); err != nil {
			b.fail(fmt.Errorf("traced synth op %d: %w", i, err))
		}
	}
}

// meshConfig is the engine's interconnect for a spec that overrides
// nothing but the collective algorithm.
func meshConfig(spec pipeline.RunSpec) (mesh.Config, error) {
	return core.TopologyFor(spec.Topology, spec.Dims, spec.Procs)
}

func (b *bench) tracedCold(t *tracer, spec pipeline.RunSpec, untracedReport string, acc *layerAcc) error {
	runtime.GC()
	t.begin("op")
	defer t.end(0)
	ctx := context.Background()

	var key string
	err := t.do("pipeline.key", func() (err error) {
		key, err = spec.Key(pipeline.DefaultSalt)
		return err
	})
	if err != nil {
		return err
	}
	wl, err := apps.ByName(spec.Scale, spec.App)
	if err != nil {
		return err
	}
	cfg, err := meshConfig(spec)
	if err != nil {
		return err
	}
	var raw *core.RawRun
	var mem *ccnuma.Stats
	if wl.Strategy == core.StrategyDynamic {
		mcfg := spasm.DefaultConfig(spec.Procs)
		mcfg.Mesh = cfg
		mcfg.Barrier = spec.Barrier
		mcfg.Memory.Protocol = spec.Protocol
		t.begin("spasm.new")
		m := spasm.New(mcfg)
		t.end(0)
		t.begin("spasm.exec")
		raw, err = core.AcquireSharedMemoryOnContext(ctx, m, func(m *spasm.Machine) error {
			return apps.RunSharedMemoryOn(m, spec.Scale, spec.App)
		})
		t.end(firedEvents(raw))
		if err != nil {
			return err
		}
		st := m.Mem.Stats()
		mem = &st
	} else {
		var alg mp.Algorithm
		if alg, err = mp.ParseAlgorithm(spec.Collectives); err != nil {
			return err
		}
		t.begin("mp.exec")
		tr, err := core.AcquireMessagePassingWith(spec.Procs, alg, func(w *mp.World) error {
			return apps.RunMessagePassingOn(w, spec.Scale, spec.App, spec.Procs)
		})
		t.end(traceEvents(tr))
		if err != nil {
			return err
		}
		t.begin("trace.replay")
		raw, err = core.ReplayTraceContext(ctx, tr, cfg, sp2.Default(), nil, sim.Watchdog{})
		t.end(firedEvents(raw))
		if err != nil {
			return err
		}
	}

	var c *core.Characterization
	t.begin("core.analyze")
	a0 := time.Now()
	outside, inside := sampleOutsideFits(func() {
		c, err = core.Analyze(spec.Label(), wl.Strategy, raw.Log, raw.Procs, raw.Elapsed, raw.MeanUtil)
	})
	if outside+inside > 0 {
		acc.coreSelf += time.Duration(float64(time.Since(a0)) * float64(outside) / float64(outside+inside))
	}
	t.end(0)
	if err != nil {
		return err
	}
	c.Trace = raw.Trace
	err = t.do("coll.analyze", func() (err error) {
		c.Coll, err = coll.Analyze(raw.Trace, raw.Log, raw.Cost, raw.Elapsed)
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	_ = t.do("report.render", func() error {
		report.Render(&buf, c)
		return nil
	})

	refit0 := time.Now()
	t.begin("stats.refit")
	err = refit(t, c)
	t.end(0)
	acc.refit += time.Since(refit0)
	if err != nil {
		return err
	}

	k := charCounters(c, raw.Events, mem)
	acc.counters.add(k)
	acc.addMesh(c.Messages, c.MeanHops, c.MeanBlockedNS)
	rep := digestBytes(buf.Bytes())
	if rep != untracedReport {
		return fmt.Errorf("report digest %s, Engine.Run rendered %s", rep, untracedReport)
	}
	return b.checkSpec(spec.String(), specRef{
		Label:    spec.Label(),
		Key:      key,
		Report:   rep,
		Counters: k,
		Original: digest(workload.MeasureLog(c.Log, c.Elapsed, c.MeanUtilization)),
	})
}

// sampleInterval spaces the stack samples taken while core.Analyze runs.
const sampleInterval = 5 * time.Millisecond

// sampleOutsideFits runs analyze while another goroutine dumps every
// goroutine's stack each sampleInterval, and counts the samples in which
// the goroutine inside core.Analyze is outside stats.FitInterarrival, and
// inside it. Both shares come from the same interval, so the drift of the
// host's speed between two timed calls does not enter them.
func sampleOutsideFits(analyze func()) (outside, inside int) {
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		buf := make([]byte, 1<<20)
		tick := time.NewTicker(sampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			n := runtime.Stack(buf, true)
			for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
				if !bytes.Contains(g, []byte("internal/core.Analyze(")) {
					continue
				}
				if bytes.Contains(g, []byte("internal/stats.FitInterarrival(")) {
					inside++
				} else {
					outside++
				}
			}
		}
	}()
	analyze()
	close(done)
	<-sampled
	return outside, inside
}

// refit fits every source's inter-arrival gaps, and the pooled gaps, again
// with stats.FitInterarrival, one span per fit, and requires each result
// to equal the fit stored in the characterization bit for bit.
func refit(t *tracer, c *core.Characterization) error {
	bySource := make([][]float64, c.Procs)
	last := make([]sim.Time, c.Procs)
	seen := make([]bool, c.Procs)
	for _, d := range c.Log { // sorted by injection time, as core.Analyze fits it
		if seen[d.Src] {
			bySource[d.Src] = append(bySource[d.Src], float64(d.Inject-last[d.Src]))
		}
		last[d.Src], seen[d.Src] = d.Inject, true
	}
	check := func(name string, gaps []float64, want []stats.CandidateFit) error {
		if len(gaps) < 8 && len(want) == 0 {
			return nil // too few samples: core.Analyze fits nothing either
		}
		t.begin("stats.fit")
		got, err := stats.FitInterarrival(gaps)
		t.end(int64(len(gaps)))
		if err != nil && len(want) == 0 {
			return nil
		}
		if err != nil {
			return fmt.Errorf("refit of %s: %w", name, err)
		}
		if digest(got) != digest(want) {
			return fmt.Errorf("refit of %s differs from the stored fit", name)
		}
		return nil
	}
	var pooled []float64
	for src, gaps := range bySource {
		pooled = append(pooled, gaps...)
		if err := check(fmt.Sprintf("source %d", src), gaps, c.PerSource[src].Fits); err != nil {
			return err
		}
	}
	return check("the pooled gaps", pooled, c.Aggregate.Fits)
}

func (b *bench) tracedSynth(t *tracer, seed uint64, acc *layerAcc) error {
	runtime.GC()
	t.begin("op")
	defer t.end(0)
	var art *pipeline.Artifact
	err := t.do("pipeline.load", func() (err error) {
		art, err = b.load()
		return err
	})
	if err != nil {
		return err
	}
	t.begin("workload.validate")
	v, err := workload.Validate(art.C, seed)
	if err != nil {
		t.end(0)
		return err
	}
	t.end(synthCounters(v).SynthMsgs)
	acc.counters.add(synthCounters(v))
	acc.addMesh(v.Synthetic.Messages, v.Synthetic.MeanHops, v.Synthetic.MeanBlockedNS)
	return b.checkSynth(b.plan.prime.String(), seed, v)
}

func firedEvents(r *core.RawRun) int64 {
	if r == nil {
		return 0
	}
	return r.Events
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
