// Command fitdist exposes the statistical layer directly: it reads a
// sample (one number per line, '#' comments ignored), fits every candidate
// family by DUD regression on the empirical CDF, and prints the ranked
// candidates with goodness-of-fit measures and a measured-vs-fitted
// overlay — PROC NLIN at the shell.
//
// With -app, the samples are an application's pooled inter-arrival gaps
// (ns), produced by characterizing it through the shared run pipeline —
// with -cache-dir, a repeated fit is served from the content-addressed
// on-disk cache instead of re-simulating.
//
// Usage:
//
//	fitdist -in samples.txt [-overlay]
//	fitdist -app IS [-procs 16] [-scale full|small] [-overlay] [-cache-dir .cache]
//	some-producer | fitdist
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"commchar/internal/apps"
	"commchar/internal/cli"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/stats"
)

func readSamples(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, field := range strings.Fields(line) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %q is not a number", lineNo, field)
			}
			out = append(out, v)
		}
	}
	return out, sc.Err()
}

func main() { cli.Main("fitdist", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fitdist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input file (default: stdin)")
	app := fs.String("app", "", "fit an application's pooled inter-arrival gaps instead of reading samples")
	procs := fs.Int("procs", 16, "number of processors (with -app)")
	scale := fs.String("scale", "full", "problem scale: full or small (with -app)")
	overlay := fs.Bool("overlay", false, "print the measured-vs-fitted CDF overlay for the winner")
	pf := pipeline.AddFlags(fs)
	if err := cli.ParseFlags(fs, args, stdout); err != nil {
		return err
	}
	defer pf.Close()
	if *app != "" && *in != "" {
		return cli.Usagef("-app and -in are mutually exclusive")
	}

	var xs []float64
	if *app != "" {
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
		art, err := eng.RunContext(ctx, pipeline.RunSpec{App: *app, Procs: *procs, Scale: sc})
		if err != nil {
			return err
		}
		xs = art.C.AggregateGaps()
		fmt.Fprintf(stdout, "%s: %d messages, %d pooled inter-arrival gaps (ns)\n",
			art.C.Name, art.C.Messages, len(xs))
	} else {
		var r io.Reader = os.Stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		var err error
		xs, err = readSamples(r)
		if err != nil {
			return err
		}
	}

	sum, fits, err := stats.SummarizeFit(xs)
	fmt.Fprintf(stdout, "n=%d mean=%.6g sd=%.6g cv=%.4g min=%.6g median=%.6g max=%.6g\n\n",
		sum.N, sum.Mean, sum.StdDev, sum.CV, sum.Min, sum.Median, sum.Max)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Candidate families (best first)",
		Columns: []string{"Family", "Parameters", "R2", "KS", "ChiSq", "p-value"},
	}
	for _, f := range fits {
		t.AddRow(f.Dist.Name(), f.Dist.String(),
			fmt.Sprintf("%.4f", f.R2),
			fmt.Sprintf("%.4f", f.KS),
			fmt.Sprintf("%.1f", f.Chi.Statistic),
			fmt.Sprintf("%.4f", f.Chi.PValue))
	}
	t.Render(stdout)

	if *overlay {
		fmt.Fprintln(stdout)
		best := fits[0]
		report.CDFOverlay(stdout,
			fmt.Sprintf("Measured vs %s", best.Dist), xs, best.Dist, 20, 44)
	}
	return nil
}
