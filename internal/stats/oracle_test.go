package stats_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/pipeline"
	"commchar/internal/stats"
)

// oracleRuns are the simulated runs whose gaps the oracle fits, at small
// scale: IS and Maxflow are execution-driven, MG trace-driven (its small
// grid fits at most 8 processors).
var oracleRuns = []struct {
	app   string
	procs int
}{{"IS", 16}, {"MG", 8}, {"Maxflow", 16}}

// runSample is one fitted sample of a simulated run: a source's gaps or
// the pooled gaps, with what SummarizeSources returned for it.
type runSample struct {
	name string
	gaps []float64
	fit  stats.SampleFit
}

var (
	runSamplesOnce sync.Once
	runSamplesList []runSample
	runSamplesErr  error
)

// runSamples simulates each oracle run once, lays out its gaps source
// after source as core.Analyze does, and fits them with SummarizeSources.
func runSamples(t *testing.T) []runSample {
	t.Helper()
	runSamplesOnce.Do(func() {
		eng, err := pipeline.New(pipeline.Options{})
		if err != nil {
			runSamplesErr = err
			return
		}
		for _, run := range oracleRuns {
			app := run.app
			art, err := eng.RunContext(context.Background(), pipeline.RunSpec{App: app, Procs: run.procs, Scale: apps.ScaleSmall})
			if err != nil {
				runSamplesErr = err
				return
			}
			perSource := make([]int, art.C.Procs)
			for _, d := range art.C.Log {
				perSource[d.Src]++
			}
			off := make([]int, art.C.Procs+1)
			for s, k := range perSource {
				off[s+1] = off[s] + max(k-1, 0)
			}
			gaps := art.C.AggregateGaps()
			fits := stats.SummarizeSources(slices.Clone(gaps), off)
			for s := range art.C.Procs {
				runSamplesList = append(runSamplesList, runSample{
					fmt.Sprintf("%s source %d", app, s), gaps[off[s]:off[s+1]], fits[s]})
			}
			runSamplesList = append(runSamplesList, runSample{app + " pooled", gaps, fits[art.C.Procs]})
		}
	})
	if runSamplesErr != nil {
		t.Fatal(runSamplesErr)
	}
	return runSamplesList
}

// TestSummarizeSourcesMatchesReferenceOnRuns requires SummarizeSources,
// on the per-source and pooled gaps of simulated IS, MG and Maxflow runs,
// to give the sort-based reference's results bit for bit.
func TestSummarizeSourcesMatchesReferenceOnRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and fits three runs")
	}
	for _, r := range runSamples(t) {
		got := stats.SummaryFitText(r.fit.Summary, r.fit.Fits, r.fit.Err)
		if want := stats.SummaryFitText(stats.ReferenceSummarizeFit(r.gaps)); got != want {
			t.Errorf("%s: got\n%s\nreference\n%s", r.name, got, want)
		}
	}
}

// nestingTol is how far a family's R² may fall below that of a family it
// nests before the fit counts as missing its optimum. All families are
// regressed on the same ECDF points, so comparing R² compares RSS.
const nestingTol = 1e-6

// nestings lists each family with the families it contains as a special
// case: the exponential is a hyperexponential with equal rates, a Weibull
// of shape 1 and a gamma of shape 1; the Erlang is a gamma of whole shape.
var nestings = []struct{ family, nested string }{
	{"hyperexponential", "exponential"},
	{"weibull", "exponential"},
	{"gamma", "exponential"},
	{"gamma", "erlang"},
}

// nestingViolations counts the fits whose R² is below that of a family
// they nest by more than nestingTol, and returns the offending pairs.
func nestingViolations(fits []stats.CandidateFit) (int, []string) {
	r2 := map[string]float64{}
	for _, f := range fits {
		r2[f.Dist.Name()] = f.R2
	}
	bad := map[string]bool{}
	var pairs []string
	for _, n := range nestings {
		outer, okOuter := r2[n.family]
		inner, okInner := r2[n.nested]
		if okOuter && okInner && outer < inner-nestingTol {
			bad[n.family] = true
			pairs = append(pairs, fmt.Sprintf("%s %.6f < %s %.6f", n.family, outer, n.nested, inner))
		}
	}
	return len(bad), pairs
}

// maxNestingViolations is the ceiling on nesting violations over the
// oracle corpus and the runs' samples: the count when the ceiling was set
// (70 hyperexponential, 3 gamma and 2 Weibull fits among 105 fitted
// samples), which a better fitter may only lower. Each violation is a fit
// that missed an optimum its nested family proves exists.
const maxNestingViolations = 75

// TestNestingViolationsCeiling counts, over the oracle corpus and the
// per-source and pooled samples of the simulated runs, the fits whose R²
// falls below a family they nest, and requires the count to stay at or
// under its ceiling.
func TestNestingViolationsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and fits three runs")
	}
	type fitted struct {
		name string
		fits []stats.CandidateFit
	}
	var all []fitted
	corpus := stats.OracleSamples()
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, fits, _ := stats.SummarizeFit(corpus[name])
		all = append(all, fitted{name, fits})
	}
	for _, r := range runSamples(t) {
		all = append(all, fitted{r.name, r.fit.Fits})
	}
	total, samples := 0, 0
	for _, f := range all {
		if len(f.fits) < 2 {
			continue
		}
		samples++
		n, pairs := nestingViolations(f.fits)
		total += n
		for _, p := range pairs {
			t.Logf("%s: %s", f.name, p)
		}
	}
	t.Logf("%d nesting violations over %d fitted samples", total, samples)
	if total > maxNestingViolations {
		t.Fatalf("%d nesting violations, ceiling %d", total, maxNestingViolations)
	}
}
