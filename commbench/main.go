// Command commbench is commchar's benchmark. It runs one workload as a
// closed loop from one client: ops are issued back to back through one
// pipeline engine with Parallel 1, each op's output is checked against the
// reference outputs pinned in oracle.json, and the metrics are printed as
// one JSON object on the last line of standard output.
//
// Workloads:
//
//	cold-fit    cold IS small, MG full (binomial collectives) and 3D-FFT
//	            full at 16 processors, each through a fresh engine on an
//	            empty cache directory, then report.Render: the analyze
//	            stage (DUD fits on small samples) is nearly all the time.
//	cold-exec   one cold Maxflow full 16p the same way: execution-driven
//	            simulation, the largest fit samples, log and cache entry.
//	synth-warm  set-up primes a disk cache with a cold Maxflow small 16p;
//	            each op loads it through a fresh engine (a disk hit) and
//	            regenerates its traffic with workload.Validate, seeded from
//	            -seed.
//
// With -trace 0 the run repeats passes over the workload's op list until
// -seconds have passed and reports the end-to-end metrics. With -trace 1
// it runs one untraced pass and one traced pass, which calls the layers
// the engine calls, in the engine's order, with a span around each call,
// and reports the per-layer metrics; the spans are written to
// .bench_build/spans-<workload>-<seed>.json. -short swaps every workload's
// specs for tiny ones. -write-oracle runs every workload once at the
// default seed and writes the reference outputs instead of checking them.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash commbench/run.sh --workload cold-fit --seed 1 --seconds 10 --trace 0
//	bash commbench/run.sh --workload synth-warm --short --trace 1
//	bash commbench/run.sh --write-oracle commbench/oracle.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	short    bool
	build    string // directory for scratch files and the span dump
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// setupSpeed and runSpeed are the host-speed factors (host.go).
	setupSpeed, runSpeed float64
}

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit, in the order they are printed.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_msgs_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"op_ok_frac", "ratio"},
}

var perLayer = [][2]string{
	{"stats.fit_s", "s"},
	{"stats.fit_calls", "count"},
	{"stats.fit_p50_ms", "ms"},
	{"stats.fit_max_ms", "ms"},
	{"stats.dud_iters", "count"},
	{"stats.alloc_mb", "MB"},
	{"stats.fit_ns_per_sample", "ns/sample"},
	{"core.analyze_s", "s"},
	{"core.self_s", "s"},
	{"core.alloc_mb", "MB"},
	{"spasm.exec_s", "s"},
	{"spasm.alloc_mb", "MB"},
	{"sim.events", "count"},
	{"spasm.ns_per_event", "ns/event"},
	{"ccnuma.misses", "count"},
	{"ccnuma.invalidations", "count"},
	{"mesh.msgs", "count"},
	{"mesh.hops_mean", "hops"},
	{"mesh.blocked_ns_mean", "ns"},
	{"mp.exec_s", "s"},
	{"mp.trace_events", "count"},
	{"trace.replay_s", "s"},
	{"trace.ns_per_event", "ns/event"},
	{"coll.analyze_s", "s"},
	{"coll.instances", "count"},
	{"workload.validate_s", "s"},
	{"workload.synth_msgs", "count"},
	{"workload.ns_per_msg", "ns/msg"},
	{"pipeline.load_s", "s"},
	{"pipeline.self_s", "s"},
	{"pipeline.cache_mb", "MB"},
	{"report.render_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

func main() {
	fs := flag.NewFlagSet("commbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the synthetic regenerations")
	fs.IntVar(&o.seconds, "seconds", 10, "measure passes over the op list for at least this long")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "tiny specs, for a smoke test")
	writeOracle := fs.String("write-oracle", "", "run every workload at the default seed and write its reference outputs to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	o.build = ".bench_build"
	var err error
	switch {
	case *writeOracle != "":
		err = recordOracle(o.build, *writeOracle)
	case *traceFlag != 0 && *traceFlag != 1, o.seconds < 1:
		err = errors.New("-trace must be 0 or 1 and -seconds at least 1")
	default:
		var res *result
		res, err = runBench(o)
		if err == nil {
			err = printResult(o, res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "commbench:", err)
		os.Exit(1)
	}
}

// runBench makes one run of one workload.
func runBench(o options) (*result, error) {
	p, err := planFor(o.workload, o.short)
	if err != nil {
		return nil, err
	}
	orc, err := loadOracle()
	if err != nil {
		return nil, err
	}
	b := &bench{plan: p, seed: o.seed, oracle: orc, seen: map[uint64]synthRef{}}
	return b.run(o)
}

func (b *bench) run(o options) (*result, error) {
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.build, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b.work = work
	pr := startProbe()
	err = b.setUp()
	b.setupSpeed = pr.finish()
	if err != nil {
		return nil, err
	}
	pr = startProbe()

	metrics := map[string]metric{}
	if o.trace {
		t := newTracer()
		untraced := b.pass()
		var acc layerAcc
		b.tracedPass(t, untraced, &acc)
		b.runSpeed = pr.finish()
		if !b.recording {
			name := fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed)
			if err := t.write(filepath.Join(o.build, name)); err != nil {
				return nil, err
			}
		}
		layerMetrics(metrics, t, untraced, &acc, b.runSpeed)
	} else {
		var passes []passStats
		start := time.Now()
		for len(passes) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
			p := b.pass()
			passes = append(passes, p)
			fmt.Fprintf(os.Stderr, "commbench: pass %d: %d ops in %.3f s of host time\n", len(passes), len(p.ops), p.wall.Seconds())
		}
		b.runSpeed = pr.finish()
		if err := b.endToEndMetrics(metrics, passes); err != nil {
			return nil, err
		}
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "commbench: FAILED:", f)
	}
	return &result{
		Correct:    len(b.failures) == 0,
		Attempted:  b.attempted,
		Failed:     len(b.failures),
		Metrics:    metrics,
		setupSpeed: b.setupSpeed,
		runSpeed:   b.runSpeed,
	}, nil
}

const mb = 1 << 20

func (b *bench) endToEndMetrics(m map[string]metric, passes []passStats) error {
	speed := b.runSpeed
	var walls, rates, allocs []float64
	for _, p := range passes {
		wall := p.wall.Seconds() * speed
		walls = append(walls, wall)
		rates = append(rates, float64(p.msgs)/wall)
		allocs = append(allocs, float64(p.alloc)/mb)
	}
	var setup []float64
	for _, d := range b.setup {
		setup = append(setup, d.Seconds()*b.setupSpeed)
	}
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	ok := float64(b.attempted-len(b.failures)) / float64(b.attempted)
	set := func(name string, v float64) { m[name] = metric{v, unitOf(endToEnd, name)} }
	set("setup_s", median(setup))
	set("run_s", median(walls))
	set("sim_msgs_per_s", median(rates))
	set("alloc_mb", median(allocs))
	set("peak_rss_mb", rss)
	set("op_ok_frac", ok)
	return nil
}

// layerMetrics derives the per-layer metrics from the traced pass's spans
// and counters and from the untraced pass it repeated. Host times are
// scaled by speed.
func layerMetrics(m map[string]metric, t *tracer, untraced passStats, acc *layerAcc, speed float64) {
	sec := func(d time.Duration) float64 { return d.Seconds() * speed }
	groups, selfSum, rootSum := t.summarize()
	g := func(name string) *byName {
		if x := groups[name]; x != nil {
			return x
		}
		return &byName{}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set := func(name string, v float64) { m[name] = metric{v, unitOf(perLayer, name)} }

	fit := g("stats.fit")
	var fitMS []float64
	for _, d := range fit.durs {
		fitMS = append(fitMS, sec(d)*1e3)
	}
	set("stats.fit_s", sec(fit.total))
	set("stats.fit_calls", float64(len(fit.durs)))
	set("stats.fit_p50_ms", median(fitMS))
	set("stats.fit_max_ms", slices.Max(append(fitMS, 0)))
	set("stats.dud_iters", float64(acc.counters.DUDIters))
	set("stats.alloc_mb", float64(fit.alloc)/mb)
	set("stats.fit_ns_per_sample", ratio(sec(fit.total)*1e9, float64(fit.count)))

	analyze := g("core.analyze")
	set("core.analyze_s", sec(analyze.total))
	set("core.self_s", sec(acc.coreSelf))
	set("core.alloc_mb", float64(analyze.alloc)/mb)

	exec := g("spasm.exec")
	set("spasm.exec_s", sec(exec.total))
	set("spasm.alloc_mb", float64(exec.alloc)/mb)
	set("sim.events", float64(acc.counters.SimEvents))
	set("spasm.ns_per_event", ratio(sec(exec.total)*1e9, float64(exec.count)))
	set("ccnuma.misses", float64(acc.counters.CCNUMAMisses))
	set("ccnuma.invalidations", float64(acc.counters.CCNUMAInvalidations))

	msgs := float64(acc.counters.MeshMsgs)
	set("mesh.msgs", msgs)
	set("mesh.hops_mean", ratio(acc.hopsSum, msgs))
	set("mesh.blocked_ns_mean", ratio(acc.blockedSum, msgs))

	set("mp.exec_s", sec(g("mp.exec").total))
	set("mp.trace_events", float64(acc.counters.MPTraceEvents))
	replay := g("trace.replay")
	set("trace.replay_s", sec(replay.total))
	set("trace.ns_per_event", ratio(sec(replay.total)*1e9, float64(replay.count)))
	set("coll.analyze_s", sec(g("coll.analyze").total))
	set("coll.instances", float64(acc.counters.CollInstances))

	validate := g("workload.validate")
	set("workload.validate_s", sec(validate.total))
	set("workload.synth_msgs", float64(acc.counters.SynthMsgs))
	set("workload.ns_per_msg", ratio(sec(validate.total)*1e9, float64(validate.count)))

	set("pipeline.load_s", sec(g("pipeline.load").total))
	var pipeSelf time.Duration
	var cache int64
	for _, o := range untraced.ops {
		if o.engineNS > 0 {
			pipeSelf += o.runWall - time.Duration(o.engineNS)
		}
		cache += o.cacheBytes
	}
	set("pipeline.self_s", sec(pipeSelf))
	set("pipeline.cache_mb", float64(cache)/mb)
	set("report.render_s", sec(g("report.render").total))

	set("trace.coverage", ratio(float64(selfSum), float64(rootSum)))
	set("trace.overhead", ratio(float64(rootSum-acc.refit), float64(untraced.wall)))
}

func unitOf(table [][2]string, name string) string {
	for _, e := range table {
		if e[0] == name {
			return e[1]
		}
	}
	panic("commbench: unlisted metric " + name)
}

// printResult writes the environment line, a human-readable metric list
// on standard error, and the result object as the last line of standard
// output.
func printResult(o options, res *result) error {
	table := endToEnd
	if o.trace {
		table = perLayer
	}
	for _, e := range table {
		v := res.Metrics[e[0]]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", e[0], v.Value)
		}
		fmt.Fprintf(os.Stderr, "%-26s %16.6g %s\n", e[0], v.Value, v.Unit)
	}
	envLine, err := json.Marshal(map[string]any{"env": environment(o, res)})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", envLine, resLine)
	return err
}

// recordOracle runs every workload, full and short, once at the default
// seed and writes the reference outputs to path.
func recordOracle(build, path string) error {
	orc := &oracle{Specs: map[string]specRef{}, Synth: map[string]synthRef{}}
	for _, short := range []bool{false, true} {
		for _, w := range workloadNames {
			p, err := planFor(w, short)
			if err != nil {
				return err
			}
			b := &bench{plan: p, seed: defaultSeed, oracle: orc, recording: true, seen: map[uint64]synthRef{}}
			res, err := b.run(options{workload: w, seed: defaultSeed, seconds: 1, trace: true, short: short, build: build})
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: the traced pass disagrees with Engine.Run", w)
			}
			fmt.Fprintf(os.Stderr, "commbench: recorded %s (short=%t)\n", w, short)
		}
	}
	return orc.write(path)
}
