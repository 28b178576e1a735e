// Command characterize runs one application of the suite end to end —
// execution (dynamic strategy) or trace-and-replay (static strategy),
// network simulation, and statistical analysis — and prints the complete
// communication characterization: inter-arrival fits per source, spatial
// figures, and the message-length spectrum.
//
// Runs execute through the shared run pipeline: with -cache-dir, a
// repeated characterization is served from the content-addressed on-disk
// cache instead of re-simulating.
//
// Usage:
//
//	characterize -app IS [-procs 16] [-scale full|small] [-log out.csv] [-cache-dir .cache]
//	characterize -app IS -topology fattree [-dims 4,2]   (fabric other than the 2-D mesh)
//	characterize -app 3D-FFT -app-trace-out t.csv   (static strategy: export the app trace)
//	characterize -app IS -trace-out run.trace.json -debug-addr :8080   (observability)
//	characterize -app IS -dist-listen 127.0.0.1:7821   (run on a sweepd fleet)
//	sweepd -worker -join http://127.0.0.1:7821           (each worker of that fleet)
//	characterize -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"commchar/internal/apps"
	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/dist"
	"commchar/internal/mp"
	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/trace"
)

func main() { cli.Main("characterize", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "application name (see -list)")
	procs := fs.Int("procs", 16, "number of processors")
	scale := fs.String("scale", "full", "problem scale: full or small")
	logOut := fs.String("log", "", "write the raw network log (CSV) to this file")
	traceOut := fs.String("app-trace-out", "", "write the application trace (CSV, static strategy only) to this file")
	list := fs.Bool("list", false, "list the application suite and exit")
	topology := fs.String("topology", "", "interconnect fabric: "+strings.Join(core.TopologyNames(), ", ")+" (default: the paper's 2-D mesh)")
	collectives := fs.String("collectives", "", "collective algorithm family: "+strings.Join(mp.AlgorithmNames(), ", ")+" (default: linear)")
	dimsFlag := fs.String("dims", "", "fabric dimensions, e.g. 4,4,4 (topology-specific; default: derived from -procs)")
	distListen := fs.String("dist-listen", "", "serve a coordinator lease API on this address and run remotely on the sweepd workers that -join it")
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

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		return err
	}

	if *list {
		for _, w := range apps.Suite(sc) {
			fmt.Fprintf(stdout, "%-10s %-8s %s\n", w.Name, w.Strategy, w.Description)
		}
		return nil
	}
	if *app == "" {
		return cli.Usagef("-app required (try -list)")
	}

	if _, err := apps.ByName(sc, *app); err != nil {
		return cli.Usagef("%v", err)
	}
	dims, err := core.ParseDims(*dimsFlag)
	if err != nil {
		return cli.Usagef("-dims: %v", err)
	}
	ob, err := of.Observer(stderr)
	if err != nil {
		return err
	}
	defer ob.Close()
	var coord *dist.Coordinator
	if *distListen != "" {
		// Client mode: serve a coordinator for the fleet and route the
		// run's cache miss (if any) through it to the workers that join.
		// The report is identical to a local run by the determinism
		// invariant.
		var coordURL string
		var shutdown func()
		coord, coordURL, shutdown, err = dist.ServeCoordinator(ctx, dist.CoordinatorOptions{Obs: ob},
			dist.Fleet{Listen: *distListen, Drain: 5 * time.Second})
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(stderr, "coordinator listening on %s\n", coordURL)
		pf.Remote = coord
	}
	eng, err := pf.Engine(ob)
	if err != nil {
		return err
	}
	if cf.Metrics {
		defer eng.Metrics().Render(stderr)
	}
	art, err := eng.RunContext(ctx, pipeline.RunSpec{
		App: *app, Procs: *procs, Scale: sc,
		Topology: *topology, Dims: dims,
		Collectives: *collectives,
	})
	if err != nil {
		return err
	}
	c := art.C
	report.Render(stdout, c)

	if *logOut != "" {
		f, err := os.Create(*logOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteDeliveries(f, c.Log); err != nil {
			return fmt.Errorf("writing log: %w", err)
		}
		fmt.Fprintf(stdout, "\nnetwork log (%d messages) written to %s\n", len(c.Log), *logOut)
	}
	if *traceOut != "" {
		if c.Trace == nil {
			return fmt.Errorf("%s uses the dynamic strategy; only static-strategy apps record an application trace", *app)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.Trace.WriteCSV(f); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "application trace (%d messages) written to %s\n", c.Trace.Messages(), *traceOut)
	}
	if coord != nil {
		// The report above is complete and correct; exit 3 flags the
		// reduced fleet health (rescued stragglers).
		return coord.DegradedError()
	}
	return nil
}
