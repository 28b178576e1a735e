// Command synthgen demonstrates the methodology's payoff: it characterizes
// an application (or a previously saved delivery log), regenerates
// synthetic traffic from the fitted temporal/spatial/volume models, drives
// the interconnect the application ran on with it (the default 2-D mesh
// for a delivery log), and compares network metrics between the real and
// synthetic workloads.
//
// The -app path executes through the shared run pipeline: with
// -cache-dir, a repeated characterization is served from the
// content-addressed on-disk cache instead of re-simulating.
//
// Usage:
//
//	synthgen -app 1D-FFT [-procs 16] [-scale full|small] [-seed 1] [-cache-dir .cache]
//	synthgen -app 1D-FFT -topology torus3d [-dims 4,4,4]
//	synthgen -log deliveries.csv -procs 16 -elapsed-ms 3.2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"commchar/internal/apps"
	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/pipeline"
	"commchar/internal/sim"
	"commchar/internal/trace"
	"commchar/internal/workload"
)

func main() { cli.Main("synthgen", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synthgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "application name to characterize and regenerate")
	logFile := fs.String("log", "", "delivery-log CSV to characterize instead of running an app")
	procs := fs.Int("procs", 16, "number of processors")
	scale := fs.String("scale", "full", "problem scale: full or small")
	seed := fs.Uint64("seed", 1, "random seed for the synthetic generator")
	elapsedMS := fs.Float64("elapsed-ms", 0, "simulated duration of the log (required with -log)")
	topology := fs.String("topology", "", "interconnect fabric for -app runs: "+strings.Join(core.TopologyNames(), ", ")+" (default: the paper's 2-D mesh)")
	dimsFlag := fs.String("dims", "", "fabric dimensions, e.g. 4,4,4 (topology-specific; default: derived from -procs)")
	pf := pipeline.AddFlags(fs)
	if err := cli.ParseFlags(fs, args, stdout); err != nil {
		return err
	}
	defer pf.Close()

	dims, err := core.ParseDims(*dimsFlag)
	if err != nil {
		return cli.Usagef("-dims: %v", err)
	}

	// The synthetic traffic runs on the machine the characterized traffic
	// ran on; a delivery log names none, so it gets the default mesh.
	var c *core.Characterization
	validate := workload.Validate
	switch {
	case *app != "":
		sc, err := apps.ParseScale(*scale)
		if err != nil {
			return err
		}
		if _, err := apps.ByName(sc, *app); err != nil {
			return cli.Usagef("%v", err)
		}
		eng, err := pf.Engine(stderr)
		if err != nil {
			return err
		}
		spec := pipeline.RunSpec{
			App: *app, Procs: *procs, Scale: sc,
			Topology: *topology, Dims: dims,
		}
		art, err := eng.RunContext(ctx, spec)
		if err != nil {
			return err
		}
		machine, err := spec.Machine()
		if err != nil {
			return err
		}
		c = art.C
		validate = func(c *core.Characterization, seed uint64) (*workload.Validation, error) {
			return workload.ValidateOn(c, machine, seed)
		}
	case *logFile != "":
		if *elapsedMS <= 0 {
			return cli.Usagef("-elapsed-ms required with -log")
		}
		f, err := os.Open(*logFile)
		if err != nil {
			return err
		}
		log, err := trace.ReadDeliveries(f, 0)
		f.Close()
		if err != nil {
			return err
		}
		c, err = core.Analyze(*logFile, core.StrategyStatic, log, *procs,
			sim.Time(*elapsedMS*1e6), 0)
		if err != nil {
			return err
		}
	default:
		return cli.Usagef("one of -app or -log required")
	}

	v, err := validate(c, *seed)
	if err != nil {
		return err
	}

	best := c.BestAggregate()
	fmt.Fprintf(stdout, "characterized %s: %d messages, aggregate model %s (R²=%.4f)\n\n",
		c.Name, c.Messages, best.Dist, best.R2)
	fmt.Fprintf(stdout, "%-22s %14s %14s %8s\n", "metric", "original", "synthetic", "rel.err")
	fmt.Fprintf(stdout, "%-22s %14.4f %14.4f %8.3f\n", "msg rate (msg/us)",
		v.Original.MessageRate, v.Synthetic.MessageRate, v.RateErr)
	fmt.Fprintf(stdout, "%-22s %14.0f %14.0f %8.3f\n", "mean latency (ns)",
		v.Original.MeanLatencyNS, v.Synthetic.MeanLatencyNS, v.LatencyErr)
	fmt.Fprintf(stdout, "%-22s %14.4f %14.4f %8.3f\n", "mean link utilization",
		v.Original.MeanUtilization, v.Synthetic.MeanUtilization, v.UtilErr)
	return nil
}
