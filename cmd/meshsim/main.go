// Command meshsim replays an application-level communication trace (CSV,
// as written by trace.Trace.WriteCSV) through the wormhole interconnect
// simulator, honouring send/receive dependencies, and reports network
// metrics. The fabric defaults to the paper's 2-D mesh; -topology selects
// any other supported interconnect (torus, torus3d, torus4d, hypercube,
// fattree, dragonfly), with -dims pinning the exact shape. Optionally it
// injects faults from a deterministic schedule and writes the delivery
// log for offline analysis.
//
// The replay executes through the shared run pipeline: with -cache-dir, a
// repeated replay of the same trace and configuration is served from the
// content-addressed on-disk cache instead of re-simulating.
//
// Usage:
//
//	meshsim -trace app.csv -ranks 16 [-width 4 -height 4] [-sp2] [-vcs 1]
//	        [-topology torus3d] [-dims 4,4,4]
//	        [-faults "drop:0.01;down:1<->2@1ms-2ms"] [-fault-seed 1]
//	        [-max-events N] [-max-sim-ms MS] [-max-wall D] [-out deliveries.csv]
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
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/obs"
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
	width := fs.Int("width", 0, "mesh width (default: derived from ranks)")
	height := fs.Int("height", 0, "mesh height")
	useSP2 := fs.Bool("sp2", false, "charge IBM SP2 software overheads during replay")
	vcs := fs.Int("vcs", 0, "virtual channels per link (0 = fabric default)")
	topology := fs.String("topology", "", "interconnect fabric: "+strings.Join(core.TopologyNames(), ", ")+" (default: the paper's 2-D mesh)")
	dimsFlag := fs.String("dims", "", "fabric dimensions, e.g. 4,4,4 (topology-specific; default: derived from -ranks)")
	faults := fs.String("faults", "", "fault schedule, e.g. 'drop:0.01;down:1<->2@1ms-2ms' (see internal/fault)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed of the fault schedule (same seed => identical run)")
	maxEvents := fs.Int64("max-events", 0, "watchdog: abort after this many simulation events (0 = unlimited)")
	maxSimMS := fs.Float64("max-sim-ms", 0, "watchdog: abort past this simulated time in ms (0 = unlimited)")
	maxWall := fs.Duration("max-wall", 0, "watchdog: abort after this much wall-clock time (0 = unlimited)")
	out := fs.String("out", "", "write the delivery log (CSV) to this file")
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

	if *traceFile == "" {
		return cli.Usagef("-trace required")
	}
	dims, err := core.ParseDims(*dimsFlag)
	if err != nil {
		return cli.Usagef("-dims: %v", err)
	}
	if *topology != "" && (*width != 0 || *height != 0) {
		return cli.Usagef("-width/-height apply to the default mesh only; use -dims with -topology")
	}
	if dims != nil && *topology == "" {
		return cli.Usagef("-dims requires -topology")
	}
	if *faults != "" {
		// Validate the schedule up front so a bad spec is a usage error,
		// not a mid-replay failure; the pipeline parses its own copy.
		if _, err := fault.Parse(*faults, *faultSeed); err != nil {
			return cli.Usagef("-faults: %v", err)
		}
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	tr, err := trace.ReadCSV(f, *ranks)
	f.Close()
	if err != nil {
		var te *trace.TruncatedError
		if errors.As(err, &te) {
			// Salvageable: replay the clean prefix, but say so.
			fmt.Fprintf(stderr, "meshsim: warning: %v; replaying the %d-event prefix\n",
				err, tr.TotalEvents())
		} else {
			return err
		}
	}

	// The default 2-D mesh path keeps its exact historical spec (explicit
	// Width/Height, VCs defaulting to 1) so cache keys from older builds
	// stay valid. Any other fabric rides the spec's Topology/Dims fields
	// and lets the pipeline size it.
	spec := pipeline.RunSpec{
		Trace:           tr,
		Procs:           *ranks,
		VirtualChannels: *vcs,
		UseSP2:          *useSP2,
		Faults:          *faults,
		FaultSeed:       *faultSeed,
		Watchdog: sim.Watchdog{
			MaxEvents:  *maxEvents,
			MaxSimTime: sim.Time(*maxSimMS * 1e6),
			MaxWall:    *maxWall,
		},
	}
	var fab mesh.Topology
	var fabCycle sim.Duration
	if *topology == "" {
		w, h := *width, *height
		if w == 0 || h == 0 {
			grid := mesh.DefaultGrid(*ranks)
			w, h = grid[0], grid[1]
		}
		spec.Width, spec.Height = w, h
		fabCycle = mesh.DefaultConfig(mesh.MeshTopology, w, h).CycleTime
		if spec.VirtualChannels == 0 {
			spec.VirtualChannels = 1
		}
	} else {
		spec.Topology = *topology
		spec.Dims = dims
		// Pre-flight the fabric so a bad selector or shape is a usage
		// error before any simulation state is built; the same checks run
		// again inside spec validation.
		fcfg, err := core.TopologyFor(*topology, dims, *ranks)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		if *vcs > 0 {
			fcfg.VirtualChannels = *vcs
		}
		if err := fcfg.Validate(); err != nil {
			return cli.Usagef("%v", err)
		}
		spec.VirtualChannels = fcfg.VirtualChannels
		fab = fcfg.Fabric()
		fabCycle = fcfg.CycleTime
	}

	ob, err := of.Observer(stderr)
	if err != nil {
		return err
	}
	defer ob.Close()
	eng, err := pf.Engine(ob)
	if err != nil {
		return err
	}
	if cf.Metrics {
		defer eng.Metrics().Render(stderr)
	}
	art, err := eng.RunContext(ctx, spec)
	if err != nil {
		return err
	}

	c := art.C
	m := workload.MeasureLog(c.Log, c.Elapsed, c.MeanUtilization)
	if fab == nil {
		fmt.Fprintf(stdout, "mesh          : %dx%d, %d VCs, %v flit cycle\n",
			spec.Width, spec.Height, spec.VirtualChannels, fabCycle)
	} else {
		fmt.Fprintf(stdout, "fabric        : %s, %d endpoints / %d nodes, %d VCs, %v flit cycle\n",
			fab.Name(), fab.Endpoints(), fab.Nodes(), spec.VirtualChannels, fabCycle)
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
