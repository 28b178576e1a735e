package stats

import (
	"fmt"
	"math"
	"testing"

	"commchar/internal/sim"
)

// newMatrix returns an r×c matrix whose rows share one backing array.
func newMatrix(r, c int) [][]float64 {
	cells := make([]float64, r*c)
	m := make([][]float64, r)
	for i := range m {
		m[i] = cells[i*c : (i+1)*c : (i+1)*c]
	}
	return m
}

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

// scaleUnderBound scales d1 so its Gram entry, as secantSystem sums it,
// is about frac of pivotTol. It leaves a zero or non-finite d1 alone.
func scaleUnderBound(d1 []float64, frac float64) {
	var a11 float64
	for _, v := range d1 {
		a11 += v * v
	}
	if !(a11 > 0) || math.IsInf(a11, 0) {
		return
	}
	scale := math.Sqrt(frac * pivotTol / a11)
	for i := range d1 {
		d1[i] *= scale
	}
}

// requireStaysSingular builds the normal equations FitDUD would solve for
// p = 2 from the secant columns d0, d1 and the residual r, with the
// fitter's own secantSystem: a zero best-point vector makes the model
// vectors the secant columns and ys the residual, exactly. If
// singularSecant calls them singular, it fails unless solveLinear rejects
// them, and reports true.
func requireStaysSingular(t *testing.T, what string, d0, d1, r []float64) bool {
	t.Helper()
	ata, atb := newMatrix(2, 2), make([]float64, 2)
	secantSystem([][]float64{d0, d1}, make([]float64, len(r)), r, ata, atb)
	if !singularSecant(ata) {
		return false
	}
	if x, ok := solve(ata, atb); ok {
		t.Fatalf("%s: singularSecant holds for ata = %v, but solveLinear solves it: x = %v", what, ata, x)
	}
	return true
}

// fuzzSecantEntry decodes one first-column or residual entry: zero, a
// value in [−1, 1], a huge or a subnormal one, NaN or ±Inf.
func fuzzSecantEntry(kind, v byte) float64 {
	x := float64(int8(v)) / 127
	switch kind % 7 {
	case 0:
		return 0
	case 1:
		return x
	case 2:
		return x * math.MaxFloat64
	case 3:
		return x * 0x1p-1050
	case 4:
		return math.NaN()
	case 5:
		return math.Inf(1)
	default:
		return math.Inf(-1)
	}
}

// TestSingularSecantStaysSingular checks singularSecant's lemma on the
// hard cases: a first column parallel to the second, which makes
// Cauchy–Schwarz tight, smaller than it, which swaps the rows, and
// entries that are zero, huge, subnormal or not finite.
func TestSingularSecantStaysSingular(t *testing.T) {
	st := sim.NewStream(5)
	firsts := []struct {
		name string
		f    func(d1 float64, i int) float64
	}{
		{"zero", func(float64, int) float64 { return 0 }},
		{"unit", func(float64, int) float64 { return 2*st.Float64() - 1 }},
		{"parallel", func(d1 float64, _ int) float64 { return 3 * d1 }},
		{"smaller", func(d1 float64, _ int) float64 { return -0.25 * d1 }},
		{"near parallel", func(d1 float64, i int) float64 { return d1 * (1 + 1e-15*float64(i%3)) }},
		{"huge", func(float64, int) float64 { return 1e300 }},
		{"subnormal", func(_ float64, i int) float64 { return float64(i+1) * 0x1p-1070 }},
		{"NaN", func(float64, int) float64 { return math.NaN() }},
		{"+Inf", func(float64, int) float64 { return math.Inf(1) }},
		{"-Inf in row 0", func(d1 float64, i int) float64 {
			if i == 0 {
				return math.Inf(-1)
			}
			return d1
		}},
	}
	var checked int
	for _, n := range []int{1, 2, 7, 64, 256} {
		for _, frac := range []float64{1 - 2e-9, 0.5, 1e-300, 1} {
			d1 := make([]float64, n)
			for i := range d1 {
				d1[i] = 2*st.Float64() - 1
			}
			scaleUnderBound(d1, frac)
			for _, first := range firsts {
				d0, r := make([]float64, n), make([]float64, n)
				for i := range d0 {
					d0[i] = first.f(d1[i], i)
					r[i] = 2*st.Float64() - 1
				}
				what := fmt.Sprintf("n=%d, %s first column, a11 at %g of pivotTol", n, first.name, frac)
				if requireStaysSingular(t, what, d0, d1, r) {
					checked++
				}
			}
		}
	}
	if want := 5 * 3 * len(firsts); checked < want {
		t.Fatalf("singularSecant held on %d cases, want at least %d", checked, want)
	}
}

// FuzzSingularSecantStaysSingular checks singularSecant's lemma on fuzzed
// systems of up to 256 rows. Each row takes five bytes: the second
// column's entry, then a kind and a value byte each for the first column's
// entry and the residual's (see fuzzSecantEntry). With parallel set, the
// first column is instead the second times a scale decoded from the first
// row. frac and shift set the second column's Gram entry to about
// (frac+1)/2^16 · 2^(−2·shift) of pivotTol.
func FuzzSingularSecantStaysSingular(f *testing.F) {
	f.Add([]byte{100, 1, 50, 1, 20, 200, 1, 7, 0, 0}, uint16(65535), uint8(0), false)
	f.Add([]byte{127, 2, 127, 3, 9, 1, 4, 0, 5, 0, 90, 6, 1, 2, 200}, uint16(40000), uint8(3), false)
	f.Add([]byte{30, 1, 3, 1, 1, 60, 0, 0, 1, 2, 90, 0, 0, 0, 0}, uint16(65535), uint8(0), true)
	f.Add([]byte{30, 1, 255, 1, 1, 60, 0, 0, 1, 2}, uint16(65535), uint8(200), true)
	f.Fuzz(func(t *testing.T, data []byte, frac uint16, shift uint8, parallel bool) {
		n := min(len(data)/5, 256)
		if n == 0 {
			return
		}
		d0, d1, r := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range d1 {
			d1[i] = float64(int8(data[5*i])) / 127
		}
		scaleUnderBound(d1, math.Ldexp(float64(frac)+1, -16-2*int(shift)))
		for i := range d0 {
			row := data[5*i : 5*i+5]
			if parallel {
				d0[i] = d1[i] * float64(int8(data[2])) / 127 * math.Ldexp(1, int(int8(data[1])))
			} else {
				d0[i] = fuzzSecantEntry(row[1], row[2])
			}
			r[i] = fuzzSecantEntry(row[3], row[4])
		}
		requireStaysSingular(t, fmt.Sprintf("n=%d", n), d0, d1, r)
	})
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
	xs, ys := NewCounts(sample).Points(200)
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
	if _, err := FitDUD(m, []float64{1, 2, 3, 4, 5}, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, []float64{1, 1, 1, 1}, FitOptions{}); err == nil {
		t.Fatal("four parameters accepted")
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
// of calls at one parameter vector that walks the distinct xs in order
// from the first, never twice at one x. A block may stop short only when a
// new parameter vector follows it or the fit ends: that is a re-nudge in a
// singular cycle whose point can no longer beat the middle one, or a
// step-halving candidate that can no longer beat the worst. Per-point
// evaluation, or a cycle that never stops early, would keep every fitted
// bit, so only the call sequence shows it.
func TestFitDUDEvaluatesOncePerDistinctX(t *testing.T) {
	st := sim.NewStream(17)
	sample := make([]float64, 300)
	for i := range sample {
		sample[i] = float64(100 * (1 + st.IntN(6)))
	}
	xs, ys := NewCounts(sample).Points(maxRegressionPoints)
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
	sameTheta := func(a, b call) bool { return a.shape == b.shape && a.scale == b.scale }
	var blocks, short int
	for i := 0; i < len(calls); {
		start := i
		for i < len(calls) && i-start < len(distinct) && sameTheta(calls[i], calls[start]) && calls[i].x == distinct[i-start] {
			i++
		}
		if i == start {
			t.Fatalf("call %d: %+v; want x = %v, the first distinct x", i, calls[i], distinct[0])
		}
		blocks++
		if i-start == len(distinct) {
			continue
		}
		if i < len(calls) && sameTheta(calls[i], calls[start]) {
			t.Fatalf("evaluation %d stops after %d of %d xs at (%v, %v), and the next call is at the same parameters",
				blocks, i-start, len(distinct), calls[start].shape, calls[start].scale)
		}
		short++
	}
	if blocks <= res.Iters {
		t.Fatalf("%d evaluations over %d iterations, want more", blocks, res.Iters)
	}
	if short == 0 {
		t.Fatalf("no evaluation of %d stops short: the singular cycle was not taken", blocks)
	}
}

// TestStopReasonCensus fits every (family, start) of referenceFits and
// counts, per family, why each fit stopped, or that it failed. The
// max-iter count is a ceiling that may only fall; while it holds, the
// other counts are pinned too.
func TestStopReasonCensus(t *testing.T) {
	type census struct{ converged, collapsed, maxIter, failed int }
	want := map[string]census{
		"exponential":      {45, 0, 0, 0},
		"weibull":          {2, 0, 43, 0},
		"uniform":          {0, 1, 44, 0},
		"normal":           {5, 0, 37, 3},
		"hyperexponential": {16, 0, 29, 0},
		"erlang":           {44, 0, 1, 0},
		"gamma":            {1, 0, 44, 0},
		"pareto":           {6, 0, 39, 0},
		"lognormal":        {4, 0, 41, 0},
	}
	got := map[string]census{}
	var w workspace
	for _, f := range referenceFits() {
		res, err := w.fitDUD(f.model, f.xs, f.ys, f.seed, FitOptions{})
		c := got[f.model.Name]
		switch {
		case err != nil:
			c.failed++
		case res.Stop == StopConverged:
			c.converged++
		case res.Stop == StopCollapsed:
			c.collapsed++
		case res.Stop == StopMaxIter:
			if res.Iters != 400 {
				t.Fatalf("%s: stopped at max-iter after %d iterations", f.what, res.Iters)
			}
			c.maxIter++
		default:
			t.Fatalf("%s: stop reason %d", f.what, res.Stop)
		}
		got[f.model.Name] = c
	}
	if len(got) != len(want) {
		t.Fatalf("families %v, want %v", got, want)
	}
	for name, c := range want {
		g := got[name]
		if g.maxIter > c.maxIter || g.maxIter == c.maxIter && g != c {
			t.Errorf("%s: %+v stop reasons, want %+v", name, g, c)
		}
	}
}
