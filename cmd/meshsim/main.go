// Command meshsim replays an application-level communication trace (CSV,
// as written by trace.Trace.WriteCSV) through the wormhole interconnect
// simulator, honouring send/receive dependencies, and reports network
// metrics. The fabric defaults to the paper's 2-D mesh, sized for -ranks;
// -topology selects any supported interconnect (mesh, torus, torus3d,
// torus4d, hypercube, fattree, dragonfly), with -dims pinning the exact
// shape, so a 4x4 mesh is -topology mesh -dims 4,4. Optionally it
// injects faults from a deterministic schedule and writes the delivery
// log for offline analysis.
//
// The replay executes through the shared run pipeline: with -cache-dir, a
// repeated replay of the same trace and configuration is served from the
// content-addressed on-disk cache instead of re-simulating.
//
// Usage:
//
//	meshsim -trace app.csv -ranks 16 [-sp2] [-vcs 1]
//	        [-topology torus3d [-dims 4,4,4]]
//	        [-faults "drop:0.01;down:1<->2@1ms-2ms"] [-fault-seed 1]
//	        [-max-events N] [-max-sim-ms MS] [-spec-timeout D] [-out deliveries.csv]
//
// -max-events and -max-sim-ms are deterministic watchdog budgets;
// -spec-timeout is the one wall-clock budget of the replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/sim"
	"commchar/internal/trace"
	"commchar/internal/workload"
)

func main() { cli.Main("meshsim", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("meshsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	traceFile := fs.String("trace", "", "trace CSV file (required)")
	ranks := fs.Int("ranks", 16, "number of ranks in the trace")
	useSP2 := fs.Bool("sp2", false, "charge IBM SP2 software overheads during replay")
	vcs := fs.Int("vcs", 0, "virtual channels per link (0 = fabric default)")
	topology := fs.String("topology", "", "interconnect fabric: "+strings.Join(core.TopologyNames(), ", ")+" (default: the paper's 2-D mesh)")
	dimsFlag := fs.String("dims", "", "fabric dimensions, e.g. 4,4,4 (topology-specific; default: derived from -ranks)")
	faults := fs.String("faults", "", "fault schedule, e.g. 'drop:0.01;down:1<->2@1ms-2ms' (see internal/fault)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed of the fault schedule (same seed => identical run)")
	maxEvents := fs.Int64("max-events", 0, "watchdog: abort after this many simulation events (0 = unlimited)")
	maxSimMS := fs.Float64("max-sim-ms", 0, "watchdog: abort past this simulated time in ms (0 = unlimited)")
	out := fs.String("out", "", "write the delivery log (CSV) to this file")
	pf := pipeline.AddFlags(fs)
	if err := cli.ParseFlags(fs, args, stdout); err != nil {
		return err
	}
	defer pf.Close()

	if *traceFile == "" {
		return cli.Usagef("-trace required")
	}
	if *ranks < 1 {
		return cli.Usagef("-ranks must be at least 1, got %d", *ranks)
	}
	dims, err := core.ParseDims(*dimsFlag)
	if err != nil {
		return cli.Usagef("-dims: %v", err)
	}
	if dims != nil && *topology == "" {
		return cli.Usagef("-dims requires -topology")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	tr, err := trace.ReadCSV(f, *ranks)
	f.Close()
	if err != nil {
		var te *trace.TruncatedError
		if errors.As(err, &te) && tr != nil { // a truncated header leaves no prefix
			// Salvageable: replay the clean prefix, but say so.
			fmt.Fprintf(stderr, "meshsim: warning: %v; replaying the %d-event prefix\n",
				err, tr.TotalEvents())
		} else {
			return err
		}
	}

	spec := pipeline.RunSpec{
		Trace:           tr,
		Procs:           *ranks,
		VirtualChannels: *vcs,
		Topology:        *topology,
		Dims:            dims,
		UseSP2:          *useSP2,
		Faults:          *faults,
		FaultSeed:       *faultSeed,
		Watchdog: sim.Watchdog{
			MaxEvents:  *maxEvents,
			MaxSimTime: sim.Time(*maxSimMS * 1e6),
		},
	}

	eng, err := pf.Engine(stderr)
	if err != nil {
		return err
	}
	art, err := eng.RunContext(ctx, spec)
	if err != nil {
		return err
	}

	machine, err := spec.Machine() // the fabric the run was validated on and ran on
	if err != nil {
		return err
	}
	c := art.C
	m := workload.MeasureLog(c.Log, c.Elapsed, c.MeanUtilization)
	if spec.Topology == "" {
		fmt.Fprintf(stdout, "mesh          : %dx%d, %d VCs, %v flit cycle\n",
			machine.Dims[0], machine.Dims[1], machine.VirtualChannels, machine.CycleTime)
	} else {
		fab := machine.Fabric()
		fmt.Fprintf(stdout, "fabric        : %s, %d endpoints / %d nodes, %d VCs, %v flit cycle\n",
			fab.Name(), fab.Endpoints(), fab.Nodes(), machine.VirtualChannels, machine.CycleTime)
	}
	fmt.Fprintf(stdout, "messages      : %d\n", m.Messages)
	fmt.Fprintf(stdout, "simulated time: %.3f ms\n", float64(c.Elapsed)/1e6)
	fmt.Fprintf(stdout, "mean latency  : %.0f ns\n", m.MeanLatencyNS)
	fmt.Fprintf(stdout, "mean blocked  : %.0f ns\n", m.MeanBlockedNS)
	fmt.Fprintf(stdout, "mean hops     : %.2f\n", m.MeanHops)
	fmt.Fprintf(stdout, "mean link util: %.4f\n", m.MeanUtilization)
	if *faults != "" {
		failures := make([]error, 0, len(art.Failures))
		for _, msg := range art.Failures {
			failures = append(failures, errors.New(msg))
		}
		report.FaultSummary(stdout, c.Log, failures)
		fmt.Fprintf(stdout, "injector      : %d drops, %d corruptions\n",
			art.FaultCounters.Drops, art.FaultCounters.Corruptions)
	}

	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		if err := trace.WriteDeliveries(of, c.Log); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "delivery log written to %s\n", *out)
	}
	return nil
}
