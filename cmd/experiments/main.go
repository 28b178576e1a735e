// Command experiments regenerates every table, figure, and ablation of the
// reproduced evaluation (see DESIGN.md for the experiment index). A step
// that fails — even by panicking — is reported and skipped; the sweep
// continues and emits every other result before exiting non-zero.
//
// Runs execute through the shared run pipeline: -parallel bounds the
// worker pool, -cache-dir enables the content-addressed on-disk cache, and
// with -metrics a pipeline summary (runs executed, cache hits, dedup hits)
// is printed to stderr after the sweep. The observability flags
// (-trace-out, -debug-addr, -progress, -events-out) expose the sweep live
// and as a Perfetto-loadable Chrome trace.
//
// Usage:
//
//	experiments [-procs 16] [-scale full|small] [-only "Table 2"] [-parallel 8] [-cache-dir .cache]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"commchar/internal/apps"
	"commchar/internal/cli"
	"commchar/internal/experiments"
	"commchar/internal/obs"
	"commchar/internal/pipeline"
)

func main() { cli.Main("experiments", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 16, "number of processors")
	scale := fs.String("scale", "full", "problem scale: full or small")
	only := fs.String("only", "", "run a single experiment (substring of its key, e.g. 'Table 2')")
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
		// The summary goes to stderr so stdout stays byte-identical across
		// -parallel settings and cache states (cold vs warm).
		defer eng.Metrics().Render(stderr)
	}

	r := experiments.NewRunner(ctx, sc, eng)
	steps := r.Steps(*procs)
	if *only != "" {
		var picked []experiments.Step
		for _, s := range steps {
			if strings.EqualFold(s.Key, *only) ||
				strings.Contains(strings.ToLower(s.Key), strings.ToLower(*only)) {
				picked = append(picked, s)
				break
			}
		}
		if len(picked) == 0 {
			var b strings.Builder
			fmt.Fprintf(&b, "no experiment matches %q; options:", *only)
			for _, s := range steps {
				fmt.Fprintf(&b, "\n  %s", s.Key)
			}
			return cli.Usagef("%s", b.String())
		}
		steps = picked
	}
	// -on-error governs both layers: the engine's sweep policy (set via
	// the shared pipeline flags) and whether a failed step stops the tool.
	stopOnFailure := pf.OnError == "fail"
	return experiments.RunSteps(ctx, stdout, steps, stopOnFailure)
}
