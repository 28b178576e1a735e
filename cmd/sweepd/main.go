// Command sweepd is the fault-tolerant distributed sweep service: one
// process per role of the internal/dist lease protocol.
//
// In -coordinator mode it enqueues a characterization sweep (apps ×
// processor counts × interconnect topologies), serves the lease API to
// workers, renders each
// run's report on stdout in spec order, and exits. The engine's disk
// cache applies to distributed runs unchanged, so a coordinator killed
// mid-sweep restarts with the same -cache-dir and only the specs it had
// not finished go back to the fleet. That cache is the fleet's shared
// artifact store: a spec any earlier sweep finished there is served
// without a lease. With -local the same sweep
// runs in-process instead — the reference output a distributed run must
// match byte for byte.
//
// In -worker mode it joins the coordinator at -join, executes leased
// specs through its own pipeline engine (own cache directory, own
// parallelism) and streams artifacts back until the coordinator
// dismisses it, then exits 0. A worker is stateless: killing one costs
// only its in-flight lease, which the coordinator re-enqueues on expiry.
//
// Usage:
//
//	sweepd -coordinator -listen 127.0.0.1:7701 -apps IS,MG -procs 4,16 -scale small \
//	       -cache-dir .cache/coord
//	sweepd -worker -join http://127.0.0.1:7701 -cache-dir .cache/w1
//	sweepd -coordinator -local ...                               (reference run, no fleet)
//	sweepd -coordinator -speculate-factor 3 ...                  (hedge stragglers)
//	sweepd -worker -join ... -net-chaos 'drop:0.2;delay:0.5:5ms' -net-chaos-seed 7   (chaos)
//
// A sweep that completes with every report but degraded fleet health —
// a straggler was rescued by a speculative re-lease — exits 3
// (dist.DegradedError), not 0. A damaged -cache-dir entry is not
// degradation: it is counted, rerun and healed, as in every tool.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"commchar/internal/apps"
	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/dist"
	"commchar/internal/fault"
	"commchar/internal/mp"
	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/report"
)

func main() { cli.Main("sweepd", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordinator := fs.Bool("coordinator", false, "run the sweep coordinator")
	worker := fs.Bool("worker", false, "run a sweep worker")
	listen := fs.String("listen", "", "address to serve the coordinator's lease API on (coordinator mode; default 127.0.0.1:0)")
	appsFlag := fs.String("apps", "", "comma-separated application names to sweep (default: the whole suite)")
	procsFlag := fs.String("procs", "16", "comma-separated processor counts to sweep")
	topoFlag := fs.String("topologies", "", "comma-separated interconnect fabrics to sweep: "+strings.Join(core.TopologyNames(), ", ")+" (default: the paper's 2-D mesh)")
	collFlag := fs.String("collectives", "", "comma-separated collective algorithm families to sweep: "+strings.Join(mp.AlgorithmNames(), ", ")+" (default: linear)")
	scale := fs.String("scale", "full", "problem scale: full or small")
	lease := fs.Duration("lease", 15*time.Second, "lease duration before unfinished work is re-enqueued")
	maxAttempts := fs.Int("max-attempts", 5, "lease grants per spec before the coordinator fails it permanently")
	local := fs.Bool("local", false, "run the sweep in-process instead of distributing: the reference a distributed run must match")
	speculate := fs.Float64("speculate-factor", 0, "hedge a straggler onto an idle worker once its lease has run longer than this factor times the median completed-lease time (coordinator mode; 0 disables)")
	name := fs.String("name", "", "worker name reported in leases and lost-worker events (default: host-pid)")
	join := fs.String("join", "", "coordinator URL to poll until its sweep completes (worker mode; required)")
	netChaos := fs.String("net-chaos", "", "inject seeded network faults into this worker's coordinator client, e.g. 'drop:0.2;delay:0.5:10ms' (see internal/fault)")
	netChaosSeed := fs.Uint64("net-chaos-seed", 1, "seed for the -net-chaos schedule")
	pf := pipeline.AddFlags(fs)
	of := obs.AddFlags(fs)
	cf := cli.AddCommonFlags(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if cf.Version {
		fmt.Fprintln(stdout, cli.VersionString())
		return nil
	}
	if *coordinator == *worker {
		return cli.Usagef("exactly one of -coordinator or -worker required")
	}

	ob, err := of.Observer(stderr)
	if err != nil {
		return err
	}
	defer ob.Close()

	if *worker {
		return runWorker(ctx, workerConfig{
			name: *name, join: *join,
			netChaos: *netChaos, netChaosSeed: *netChaosSeed,
			pf: pf, cf: cf,
		}, ob, stdout, stderr)
	}
	return runCoordinator(ctx, coordinatorConfig{
		listen: *listen, apps: *appsFlag, procs: *procsFlag,
		topologies: *topoFlag, collectives: *collFlag, scale: *scale,
		lease: *lease, maxAttempts: *maxAttempts, local: *local,
		speculate: *speculate, pf: pf, cf: cf,
	}, ob, stdout, stderr)
}

type coordinatorConfig struct {
	listen      string
	apps        string
	procs       string
	topologies  string
	collectives string
	scale       string
	lease       time.Duration
	maxAttempts int
	local       bool
	speculate   float64
	pf          *pipeline.Flags
	cf          *cli.CommonFlags
}

func runCoordinator(ctx context.Context, cfg coordinatorConfig, ob *obs.Observer, stdout, stderr io.Writer) error {
	specs, err := sweepSpecs(cfg.apps, cfg.procs, cfg.topologies, cfg.collectives, cfg.scale)
	if err != nil {
		return err
	}

	var coord *dist.Coordinator
	var shutdown func()
	if !cfg.local {
		var coordURL string
		coord, coordURL, shutdown, err = dist.ServeCoordinator(ctx, dist.CoordinatorOptions{
			Lease:           cfg.lease,
			MaxAttempts:     cfg.maxAttempts,
			Obs:             ob,
			SpeculateFactor: cfg.speculate,
		}, dist.Fleet{Listen: cfg.listen, Drain: cfg.lease})
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(stderr, "coordinator listening on %s (%d specs)\n", coordURL, len(specs))
		cfg.pf.Remote = coord
	}

	eng, err := cfg.pf.Engine(ob)
	if err != nil {
		return err
	}
	if cfg.cf.Metrics {
		defer eng.Metrics().Render(stderr)
	}

	arts, runErr := eng.RunAll(ctx, specs...)
	// Render whatever completed, in spec order, before reporting the
	// failures: a degraded sweep still carries its finished reports.
	for i, art := range arts {
		if art == nil {
			continue
		}
		fmt.Fprintf(stdout, "==> %s\n", specs[i].Label())
		report.Render(stdout, art.C)
	}
	if coord != nil {
		shutdown()
		if runErr == nil {
			// Every report above is complete and correct, but a sweep run
			// at reduced fleet health (rescued stragglers) exits 3 so
			// operators notice without diffing metrics.
			runErr = coord.DegradedError()
		}
	}
	return runErr
}

type workerConfig struct {
	name         string
	join         string
	netChaos     string
	netChaosSeed uint64
	pf           *pipeline.Flags
	cf           *cli.CommonFlags
}

func runWorker(ctx context.Context, cfg workerConfig, ob *obs.Observer, stdout, stderr io.Writer) error {
	if cfg.join == "" {
		return cli.Usagef("worker mode needs -join (the coordinator URL to poll)")
	}
	name := cfg.name
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var rpcChaos http.RoundTripper
	if cfg.netChaos != "" {
		sched, err := fault.ParseNet(cfg.netChaos, cfg.netChaosSeed)
		if err != nil {
			return cli.Usagef("-net-chaos: %v", err)
		}
		rpcChaos = fault.NewRoundTripper(sched, nil)
		fmt.Fprintf(stderr, "worker %s: net chaos %q (seed %d)\n", name, cfg.netChaos, cfg.netChaosSeed)
	}

	eng, err := cfg.pf.Engine(ob)
	if err != nil {
		return err
	}
	if cfg.cf.Metrics {
		defer eng.Metrics().Render(stderr)
	}

	w, err := dist.NewWorker(dist.WorkerOptions{
		Name: name, Runner: eng, Obs: ob, Transport: rpcChaos,
	})
	if err != nil {
		return err
	}
	// Serve this one coordinator until its sweep completes. A restarted
	// coordinator answers again within the unreachable grace, so the
	// poll survives it.
	return w.Poll(ctx, cfg.join)
}

// sweepSpecs expands the -apps/-procs/-topologies/-collectives/-scale
// cross product into specs, in the stable apps-major (then procs, then
// topology, then collectives) order the reports are rendered in. Empty
// topology and collectives lists sweep only the defaults (2-D mesh,
// linear family), producing specs — and therefore cache keys — identical
// to builds that predate those dimensions.
func sweepSpecs(appsList, procsList, topoList, collList, scale string) ([]pipeline.RunSpec, error) {
	sc, err := apps.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	names := splitList(appsList)
	if len(names) == 0 {
		for _, w := range apps.Suite(sc) {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if _, err := apps.ByName(sc, n); err != nil {
			return nil, cli.Usagef("%v", err)
		}
	}
	var procs []int
	for _, p := range splitList(procsList) {
		v, err := strconv.Atoi(p)
		if err != nil || v < 2 {
			return nil, cli.Usagef("-procs: %q is not a processor count (need at least 2)", p)
		}
		procs = append(procs, v)
	}
	if len(procs) == 0 {
		return nil, cli.Usagef("-procs: at least one processor count required")
	}
	topos := splitList(topoList)
	if len(topos) == 0 {
		topos = []string{""}
	}
	for _, t := range topos {
		if t == "" {
			continue
		}
		if _, err := core.TopologyFor(t, nil, procs[0]); err != nil {
			return nil, cli.Usagef("-topologies: %v", err)
		}
	}
	colls := splitList(collList)
	if len(colls) == 0 {
		colls = []string{""}
	}
	for _, c := range colls {
		if _, err := mp.ParseAlgorithm(c); err != nil {
			return nil, cli.Usagef("-collectives: %v", err)
		}
	}
	var specs []pipeline.RunSpec
	for _, n := range names {
		for _, p := range procs {
			for _, t := range topos {
				for _, c := range colls {
					s := pipeline.RunSpec{App: n, Procs: p, Scale: sc, Topology: t, Collectives: c}
					// Label the report row with the swept dimensions so
					// the rows stay distinguishable.
					label := n
					if t != "" {
						label += "/" + t
					}
					if c != "" {
						label += "/" + c
					}
					if label != n {
						s.Name = label
					}
					specs = append(specs, s)
				}
			}
		}
	}
	return specs, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
