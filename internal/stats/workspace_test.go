package stats

import (
	"fmt"
	"testing"

	"commchar/internal/sim"
)

// workspaceFit is one DUD fit of the workspace-reuse oracle.
type workspaceFit struct {
	what         string
	model        Model
	xs, ys, seed []float64
}

// workspaceFits returns a fit of every candidate family of the sample from
// every multi-start seed, on n of its ECDF points.
func workspaceFits(name string, sample []float64, n int) []workspaceFit {
	counts := NewCounts(sample)
	xs, ys := counts.Points(n)
	raw := takeRawSums(sample)
	var fits []workspaceFit
	for _, c := range candidateModels(raw, weibullInit(counts, raw.sum.Mean)) {
		for _, f := range multiStarts {
			seed := startFrom(c, f)
			what := fmt.Sprintf("%s, %d points, %s from %v", name, len(xs), c.model.Name, seed)
			fits = append(fits, workspaceFit{what, c.model, xs, ys, seed})
		}
	}
	return fits
}

// shortEvaluations runs the fit on a fresh workspace and counts the model
// evaluations that stopped before the last distinct x, leaving the rest of
// their model vector stale: those the singular re-nudge cycle cut short,
// and step-halving candidates that stopped evaluating once rejected.
func shortEvaluations(f workspaceFit) int {
	distinct := len(distinctValues(f.xs))
	var last []float64
	var run, short int
	m := f.model
	m.F = func(th []float64, x float64) float64 {
		if last != nil && th[0] == last[0] && th[1] == last[1] {
			run++
		} else {
			if last != nil && run < distinct {
				short++
			}
			last, run = append(last[:0], th...), 1
		}
		return f.model.F(th, x)
	}
	_, _ = FitDUD(m, f.xs, f.ys, f.seed, FitOptions{})
	return short
}

// TestWorkspaceReuseMatchesFreshFits runs a shuffled sequence of fits on
// one workspace, as a worker of the fitting pool does: every family (p =
// 1, 2 and 3) from every multi-start seed, on 2 to 256 regression points
// of a continuous sample and of two tied ones. Each must equal a fresh
// FitDUD and referenceFitDUD bit for bit. The sequence ends with a fit
// whose singular re-nudge cycle leaves model vectors stale, followed by
// fits on more points, so anything carried from one fit to the next
// would show.
func TestWorkspaceReuseMatchesFreshFits(t *testing.T) {
	st := sim.NewStream(23)
	ties := make([]float64, 400)
	for i := range ties {
		ties[i] = float64(1 + st.IntN(9))
	}
	samples := []struct {
		name   string
		sample []float64
	}{
		{"h2", benchmarkSample()},
		{"9 distinct", ties},
		{"lomax, 0.01", quantize(sampleFrom(Lomax{Alpha: 3, Scale: 6}, 2000, 10), 0.01)},
	}
	var fits []workspaceFit
	for _, s := range samples {
		for _, n := range []int{2, 3, 4, 5, 17, 100, maxRegressionPoints} {
			fits = append(fits, workspaceFits(s.name, s.sample, n)...)
		}
	}
	for i := len(fits) - 1; i > 0; i-- {
		j := st.IntN(i + 1)
		fits[i], fits[j] = fits[j], fits[i]
	}

	// TestFitDUDEvaluatesOncePerDistinctX's sample, whose Weibull fit
	// cycles.
	cycle := make([]float64, 300)
	cst := sim.NewStream(17)
	for i := range cycle {
		cycle[i] = float64(100 * (1 + cst.IntN(6)))
	}
	stale := workspaceFits("6 distinct", cycle, 100)[3]
	stale.seed = []float64{1, 300}
	stale.what = fmt.Sprintf("6 distinct, 100 points, %s from %v", stale.model.Name, stale.seed)
	if stale.model.Name != "weibull" || shortEvaluations(stale) == 0 {
		t.Fatalf("%s: no evaluation stops short, so no model vector is left stale", stale.what)
	}
	fits = append(fits, stale)
	fits = append(fits, workspaceFits("6 distinct", cycle, maxRegressionPoints)...)

	var w workspace
	for _, f := range fits {
		got, gotErr := w.fitDUD(f.model, f.xs, f.ys, f.seed, FitOptions{})
		fresh, freshErr := FitDUD(f.model, f.xs, f.ys, f.seed, FitOptions{})
		requireSameFit(t, f.what+" on a reused workspace, against a fresh one", got, gotErr, fresh, freshErr)
		want, wantErr := referenceFitDUD(f.model, f.xs, f.ys, f.seed, FitOptions{})
		requireSameFit(t, f.what+" on a reused workspace, against the reference", got, gotErr, want, wantErr)
	}
}
