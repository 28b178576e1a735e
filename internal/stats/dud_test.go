package stats

import (
	"math"
	"testing"

	"commchar/internal/sim"
)

// solve runs solveLinear on fresh scratch and returns its solution.
func solve(a [][]float64, b []float64) ([]float64, bool) {
	x := make([]float64, len(b))
	ok := solveLinear(a, b, newMatrix(len(b), len(b)), x)
	return x, ok
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, ok := solve(a, b)
	if !ok {
		t.Fatal("solver failed")
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if !almostEqual(x[0], 1, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Fatalf("solution = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, ok := solve(a, []float64{1, 2}); ok {
		t.Fatal("singular system solved")
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Zero on the diagonal forces a pivot swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, ok := solve(a, []float64{3, 4})
	if !ok || !almostEqual(x[0], 4, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("pivoted solve = %v ok=%v", x, ok)
	}
}

func TestTransformsRoundTrip(t *testing.T) {
	cases := []struct {
		tr ParamTransform
		v  float64
	}{
		{TransformIdentity, -3.5},
		{TransformLog, 0.02},
		{TransformLog, 1234},
		{TransformLogit, 0.001},
		{TransformLogit, 0.999},
	}
	for _, c := range cases {
		u := c.tr.toUnconstrained(c.v)
		back := c.tr.toNatural(u)
		if !almostEqual(back, c.v, 1e-9*math.Max(1, math.Abs(c.v))) {
			t.Errorf("transform %v: %v -> %v -> %v", c.tr, c.v, u, back)
		}
	}
}

// exponential CDF regression should recover the rate from clean data.
func TestDUDRecoversExponential(t *testing.T) {
	trueDist := Exponential{Rate: 0.37}
	var xs, ys []float64
	for x := 0.1; x < 20; x += 0.2 {
		xs = append(xs, x)
		ys = append(ys, trueDist.CDF(x))
	}
	m := Model{
		Name:       "exp",
		F:          func(th []float64, x float64) float64 { return Exponential{Rate: th[0]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog},
	}
	res, err := FitDUD(m, xs, ys, []float64{1.0}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Theta[0], 0.37, 1e-3) {
		t.Fatalf("recovered rate %v, want 0.37 (rss %v)", res.Theta[0], res.RSS)
	}
}

func TestDUDRecoversWeibull(t *testing.T) {
	trueDist := Weibull{Shape: 2.2, Scale: 5}
	var xs, ys []float64
	for x := 0.2; x < 15; x += 0.1 {
		xs = append(xs, x)
		ys = append(ys, trueDist.CDF(x))
	}
	m := Model{
		Name:       "weibull",
		F:          func(th []float64, x float64) float64 { return Weibull{Shape: th[0], Scale: th[1]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog, TransformLog},
	}
	res, err := FitDUD(m, xs, ys, []float64{1, 3}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Theta[0], 2.2, 0.02) || !almostEqual(res.Theta[1], 5, 0.05) {
		t.Fatalf("recovered %v, want [2.2 5]", res.Theta)
	}
}

func TestDUDRecoversHyperExpFromSamples(t *testing.T) {
	trueDist := HyperExp2{P: 0.7, Rate1: 3, Rate2: 0.3}
	st := sim.NewStream(11)
	sample := make([]float64, 40000)
	for i := range sample {
		sample[i] = trueDist.Sample(st)
	}
	xs, ys := NewECDF(sample).Points(200)
	m := Model{
		Name: "h2",
		F: func(th []float64, x float64) float64 {
			return HyperExp2{P: th[0], Rate1: th[1], Rate2: th[2]}.CDF(x)
		},
		Transforms: []ParamTransform{TransformLogit, TransformLog, TransformLog},
	}
	sum := Summarize(sample)
	p0, l1, l2 := hyperInit(sum.Mean, sum.CV)
	res, err := FitDUD(m, xs, ys, []float64{p0, l1, l2}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fit := HyperExp2{P: res.Theta[0], Rate1: res.Theta[1], Rate2: res.Theta[2]}
	// Parameter identifiability of H2 is weak; check the CDF matches.
	if ks := KolmogorovSmirnov(sample, fit); ks > 0.02 {
		t.Fatalf("fitted H2 KS = %v (fit %v)", ks, fit)
	}
}

func TestDUDErrorsOnBadInput(t *testing.T) {
	m := Model{
		Name:       "exp",
		F:          func(th []float64, x float64) float64 { return Exponential{Rate: th[0]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog},
	}
	if _, err := FitDUD(m, []float64{1, 2}, []float64{1}, []float64{1}, FitOptions{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitDUD(m, nil, nil, nil, FitOptions{}); err == nil {
		t.Fatal("no parameters accepted")
	}
	if _, err := FitDUD(m, []float64{1, 2}, []float64{0.1, 0.2}, []float64{-1}, FitOptions{}); err == nil {
		t.Fatal("out-of-domain init accepted (log of negative)")
	}
}

func TestDUDImprovesOnInitialGuess(t *testing.T) {
	trueDist := Exponential{Rate: 2.5}
	var xs, ys []float64
	for x := 0.05; x < 4; x += 0.05 {
		xs = append(xs, x)
		ys = append(ys, trueDist.CDF(x))
	}
	m := Model{
		Name:       "exp",
		F:          func(th []float64, x float64) float64 { return Exponential{Rate: th[0]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog},
	}
	badInit := []float64{0.01}
	var initRSS float64
	for i := range xs {
		r := ys[i] - Exponential{Rate: badInit[0]}.CDF(xs[i])
		initRSS += r * r
	}
	res, err := FitDUD(m, xs, ys, badInit, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RSS >= initRSS/100 {
		t.Fatalf("RSS %v barely improved on initial %v", res.RSS, initRSS)
	}
}

// TestFitDUDEvaluatesOncePerDistinctX requires FitDUD to call the model once
// per run of equal xs, not once per point: every evaluation is one block
// of calls at one parameter vector that walks the distinct xs in order.
// Per-point evaluation would keep every fitted bit, so only the call
// sequence shows it.
func TestFitDUDEvaluatesOncePerDistinctX(t *testing.T) {
	st := sim.NewStream(17)
	sample := make([]float64, 300)
	for i := range sample {
		sample[i] = float64(100 * (1 + st.IntN(6)))
	}
	xs, ys := NewECDF(sample).Points(maxRegressionPoints)
	distinct := distinctValues(xs)
	if len(distinct) != 6 || len(xs) != maxRegressionPoints {
		t.Fatalf("%d distinct values among %d points, want 6 among %d", len(distinct), len(xs), maxRegressionPoints)
	}
	type call struct{ shape, scale, x float64 }
	var calls []call
	m := Model{
		Name: "weibull",
		F: func(th []float64, x float64) float64 {
			calls = append(calls, call{th[0], th[1], x})
			return Weibull{Shape: th[0], Scale: th[1]}.CDF(x)
		},
		Transforms: []ParamTransform{TransformLog, TransformLog},
	}
	res, err := FitDUD(m, xs, ys, []float64{1, 300}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls)%len(distinct) != 0 {
		t.Fatalf("%d model calls is not a whole number of evaluations at %d distinct xs", len(calls), len(distinct))
	}
	evals := len(calls) / len(distinct)
	if evals <= res.Iters {
		t.Fatalf("%d evaluations over %d iterations, want more", evals, res.Iters)
	}
	for e := 0; e < evals; e++ {
		block := calls[e*len(distinct) : (e+1)*len(distinct)]
		for k, c := range block {
			if c.x != distinct[k] || c.shape != block[0].shape || c.scale != block[0].scale {
				t.Fatalf("evaluation %d, call %d: %+v; want x = %v at (%v, %v)",
					e, k, c, distinct[k], block[0].shape, block[0].scale)
			}
		}
	}
}
