// Command sweepd is the fault-tolerant distributed sweep service: one
// process per role of the internal/dist lease protocol.
//
// In -coordinator mode it enqueues a characterization sweep (apps ×
// processor counts × interconnect topologies), serves the lease API to
// workers, renders each
// run's report on stdout in spec order, and exits. The engine's disk
// cache applies to distributed runs unchanged, so a coordinator killed
// mid-sweep restarts with the same -cache-dir and only the specs it had
// not finished go back to the fleet. With -local the same sweep
// runs in-process instead — the reference output a distributed run must
// match byte for byte.
//
// In -worker mode it executes leased specs through its own pipeline
// engine (own cache directory, own parallelism) and streams artifacts
// back. A worker is stateless: killing one costs only its in-flight
// lease, which the coordinator re-enqueues on expiry.
//
// Usage:
//
//	sweepd -coordinator -listen 127.0.0.1:7701 -apps IS,MG -procs 4,16 -scale small \
//	       -cache-dir .cache/coord
//	sweepd -worker -join http://127.0.0.1:7701 -cache-dir .cache/w1
//	sweepd -worker -listen 127.0.0.1:7801 -cache-dir .cache/w1   (wait for /v1/attach)
//	sweepd -coordinator -local ...                               (reference run, no fleet)
//	sweepd -coordinator -blob-dir .cache/blobs -speculate-factor 3 ...   (shared store + hedging)
//	sweepd -worker -join ... -net-chaos 'drop:0.2;delay:0.5:5ms' -net-chaos-seed 7   (chaos)
//
// A sweep that completes with every report but degraded fleet health —
// workers fell back from the shared store, or a straggler was rescued by
// a speculative re-lease — exits 3 (dist.DegradedError), not 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
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
	listen := fs.String("listen", "", "address to serve the role's HTTP API on (coordinator: lease API; worker: control API)")
	appsFlag := fs.String("apps", "", "comma-separated application names to sweep (default: the whole suite)")
	procsFlag := fs.String("procs", "16", "comma-separated processor counts to sweep")
	topoFlag := fs.String("topologies", "", "comma-separated interconnect fabrics to sweep: "+strings.Join(core.TopologyNames(), ", ")+" (default: the paper's 2-D mesh)")
	collFlag := fs.String("collectives", "", "comma-separated collective algorithm families to sweep: "+strings.Join(mp.AlgorithmNames(), ", ")+" (default: linear)")
	scale := fs.String("scale", "full", "problem scale: full or small")
	lease := fs.Duration("lease", 15*time.Second, "lease duration before unfinished work is re-enqueued")
	maxAttempts := fs.Int("max-attempts", 5, "lease grants per spec before the coordinator fails it permanently")
	workers := fs.String("workers", "", "comma-separated worker control URLs to attach at startup (coordinator mode)")
	advertise := fs.String("advertise", "", "coordinator URL advertised to attached workers (default: the bound -listen address)")
	local := fs.Bool("local", false, "run the sweep in-process instead of distributing: the reference a distributed run must match")
	blobDir := fs.String("blob-dir", "", "serve a shared artifact blob store from this directory (coordinator mode); workers read through it and the coordinator feeds it from completions")
	speculate := fs.Float64("speculate-factor", 0, "hedge a straggler onto an idle worker once its lease has run longer than this factor times the median completed-lease time (coordinator mode; 0 disables)")
	name := fs.String("name", "", "worker name reported in leases and lost-worker events (default: host-pid)")
	join := fs.String("join", "", "coordinator URL to poll until its sweep completes (worker mode)")
	netChaos := fs.String("net-chaos", "", "inject seeded network faults into this worker's coordinator and store clients, e.g. 'drop:0.2;delay:0.5:10ms' (see internal/fault)")
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
			listen: *listen, name: *name, join: *join,
			lease: *lease, netChaos: *netChaos, netChaosSeed: *netChaosSeed,
			pf: pf, cf: cf,
		}, ob, stdout, stderr)
	}
	return runCoordinator(ctx, coordinatorConfig{
		listen: *listen, apps: *appsFlag, procs: *procsFlag,
		topologies: *topoFlag, collectives: *collFlag, scale: *scale,
		lease: *lease, maxAttempts: *maxAttempts, workers: *workers,
		advertise: *advertise, local: *local,
		blobDir: *blobDir, speculate: *speculate, pf: pf, cf: cf,
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
	workers     string
	advertise   string
	local       bool
	blobDir     string
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
		}, dist.Fleet{
			BlobDir: cfg.blobDir, Listen: cfg.listen, Advertise: cfg.advertise,
			Workers: cfg.workers, Drain: cfg.lease,
		})
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
	defer eng.Close()
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
			// at reduced fleet health (store fallbacks, rescued stragglers)
			// exits 3 so operators notice without diffing metrics.
			runErr = coord.DegradedError()
		}
	}
	return runErr
}

type workerConfig struct {
	listen       string
	name         string
	join         string
	lease        time.Duration
	netChaos     string
	netChaosSeed uint64
	pf           *pipeline.Flags
	cf           *cli.CommonFlags
}

func runWorker(ctx context.Context, cfg workerConfig, ob *obs.Observer, stdout, stderr io.Writer) error {
	if cfg.join == "" && cfg.listen == "" {
		return cli.Usagef("worker mode needs -join (poll a coordinator) or -listen (wait for /v1/attach)")
	}
	name := cfg.name
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	// Each chaos-injected client owns its RoundTripper (its own request
	// ordinal stream); the store client's seed is decorrelated so the two
	// schedules fault independently.
	var rpcChaos, storeChaos http.RoundTripper
	if cfg.netChaos != "" {
		sched, err := fault.ParseNet(cfg.netChaos, cfg.netChaosSeed)
		if err != nil {
			return cli.Usagef("-net-chaos: %v", err)
		}
		storeSched, err := fault.ParseNet(cfg.netChaos, cfg.netChaosSeed+1)
		if err != nil {
			return cli.Usagef("-net-chaos: %v", err)
		}
		rpcChaos = fault.NewRoundTripper(sched, nil)
		storeChaos = fault.NewRoundTripper(storeSched, nil)
		fmt.Fprintf(stderr, "worker %s: net chaos %q (seed %d)\n", name, cfg.netChaos, cfg.netChaosSeed)
	}

	// The shared-store client is created detached; it activates when a
	// coordinator advertises its blob store in a lease. Until then every
	// Get is a miss and every Put a no-op.
	dm := &dist.Metrics{}
	if ob != nil {
		dm.RegisterWith(ob.Registry)
	}
	store := dist.NewHTTPStore(dist.HTTPStoreOptions{Obs: ob, Metrics: dm, Transport: storeChaos})
	cfg.pf.Store = store

	eng, err := cfg.pf.Engine(ob)
	if err != nil {
		return err
	}
	defer eng.Close()
	if cfg.cf.Metrics {
		defer eng.Metrics().Render(stderr)
	}

	w, err := dist.NewWorker(dist.WorkerOptions{
		Name: name, Runner: eng, Obs: ob,
		Store: store, Transport: rpcChaos,
	})
	if err != nil {
		return err
	}
	if cfg.listen != "" {
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			return fmt.Errorf("worker listener: %w", err)
		}
		srv := &http.Server{Handler: w.ControlHandler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(stderr, "worker %s control API on http://%s\n", name, ln.Addr().String())
	}
	if cfg.join != "" {
		// Serve this one coordinator until its sweep completes. A
		// restarted coordinator answers again within the unreachable
		// grace, so the poll survives it.
		return w.Poll(ctx, cfg.join)
	}
	// Serve attach requests until interrupted (exit 130, the
	// interrupted-run convention).
	return w.Run(ctx)
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
		if err != nil || v <= 0 {
			return nil, cli.Usagef("-procs: %q is not a positive processor count", p)
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
