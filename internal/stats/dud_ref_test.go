package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"commchar/internal/sim"
)

// referenceFitDUD is FitDUD as it stood before it cached its model vectors
// and kept a per-fit workspace: every iteration re-evaluates the model at the
// best point and at each secant point, and allocates afresh. It is kept
// verbatim as the oracle that FitDUD must match bit for bit.
func referenceFitDUD(m Model, xs, ys []float64, theta0 []float64, opt FitOptions) (FitResult, error) {
	opt = opt.withDefaults()
	if len(xs) != len(ys) {
		return FitResult{}, fmt.Errorf("stats: %d xs vs %d ys", len(xs), len(ys))
	}
	p := len(theta0)
	if p == 0 {
		return FitResult{}, errors.New("stats: no parameters")
	}
	if len(m.Transforms) != p {
		return FitResult{}, fmt.Errorf("stats: %d transforms for %d parameters", len(m.Transforms), p)
	}
	if len(xs) < p+1 {
		return FitResult{}, fmt.Errorf("stats: %d observations cannot identify %d parameters", len(xs), p)
	}

	natural := func(u []float64) []float64 {
		th := make([]float64, p)
		for j := range th {
			th[j] = m.Transforms[j].toNatural(u[j])
		}
		return th
	}
	rss := func(u []float64) float64 {
		th := natural(u)
		var s float64
		for i := range xs {
			r := ys[i] - m.F(th, xs[i])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return math.Inf(1)
			}
			s += r * r
		}
		return s
	}

	// Initial simplex of p+1 points: theta0 plus per-coordinate nudges.
	u0 := make([]float64, p)
	for j := range u0 {
		u0[j] = m.Transforms[j].toUnconstrained(theta0[j])
		if math.IsNaN(u0[j]) || math.IsInf(u0[j], 0) {
			return FitResult{}, fmt.Errorf("stats: initial parameter %d (%v) not in the transform's domain", j, theta0[j])
		}
	}
	pts := make([][]float64, p+1)
	vals := make([]float64, p+1)
	pts[0] = u0
	vals[0] = rss(u0)
	for j := 0; j < p; j++ {
		u := append([]float64(nil), u0...)
		step := 0.1 * math.Abs(u[j])
		if step < 0.1 {
			step = 0.1
		}
		u[j] += step
		pts[j+1] = u
		vals[j+1] = rss(u)
	}

	// order sorts points so pts[0] is worst and pts[p] is best.
	order := func() {
		for i := 0; i < len(pts); i++ {
			for k := i + 1; k < len(pts); k++ {
				if vals[k] > vals[i] {
					pts[i], pts[k] = pts[k], pts[i]
					vals[i], vals[k] = vals[k], vals[i]
				}
			}
		}
	}
	order()

	iters := 0
	stall := 0
	for ; iters < opt.MaxIter; iters++ {
		best := pts[p]
		bestVal := vals[p]
		if math.IsInf(bestVal, 1) {
			return FitResult{}, errors.New("stats: model not evaluable near initial estimate")
		}

		// Secant approximation around the best point.
		thBest := natural(best)
		gBest := make([]float64, len(xs))
		for i := range xs {
			gBest[i] = m.F(thBest, xs[i])
		}
		// Columns: dTheta[j] = pts[j] - best; dG[j][i] = F(pts[j]) - F(best).
		dTheta := make([][]float64, p)
		dG := make([][]float64, p)
		for j := 0; j < p; j++ {
			dTheta[j] = make([]float64, p)
			for k := 0; k < p; k++ {
				dTheta[j][k] = pts[j][k] - best[k]
			}
			th := natural(pts[j])
			col := make([]float64, len(xs))
			for i := range xs {
				col[i] = m.F(th, xs[i]) - gBest[i]
			}
			dG[j] = col
		}

		// Solve min_alpha || r - dG alpha || where r = y - g(best):
		// normal equations (dG^T dG) alpha = dG^T r, with ridge fallback.
		r := make([]float64, len(xs))
		for i := range xs {
			r[i] = ys[i] - gBest[i]
		}
		ata := make([][]float64, p)
		atb := make([]float64, p)
		for j := 0; j < p; j++ {
			ata[j] = make([]float64, p)
			for k := 0; k <= j; k++ {
				var s float64
				for i := range xs {
					s += dG[j][i] * dG[k][i]
				}
				ata[j][k] = s
			}
			var s float64
			for i := range xs {
				s += dG[j][i] * r[i]
			}
			atb[j] = s
		}
		for j := 0; j < p; j++ {
			for k := j + 1; k < p; k++ {
				ata[j][k] = ata[k][j]
			}
		}
		alpha, ok := referenceSolveLinear(ata, atb)
		if !ok {
			// Degenerate secant set: regularize by re-nudging the worst
			// point off the best and retry next iteration.
			for j := range pts[0] {
				pts[0][j] = best[j] + (0.05+1e-3*float64(iters))*(1+math.Abs(best[j]))*sign(float64(j%2)*2-1)
			}
			vals[0] = rss(pts[0])
			order()
			continue
		}

		// Candidate step with halving, under a trust-region cap: an
		// unconstrained-space move bigger than maxStep per coordinate
		// would leap onto the CDF's flat plateaus (F≡0 or F≡1) where the
		// secants carry no information.
		const maxStep = 2.0
		var maxMove float64
		for k := 0; k < p; k++ {
			var move float64
			for j := 0; j < p; j++ {
				move += dTheta[j][k] * alpha[j]
			}
			if a := math.Abs(move); a > maxMove {
				maxMove = a
			}
		}
		improved := false
		scale := 1.0
		if maxMove > maxStep {
			scale = maxStep / maxMove
		}
		for h := 0; h < 10; h++ {
			cand := make([]float64, p)
			for k := 0; k < p; k++ {
				var move float64
				for j := 0; j < p; j++ {
					move += dTheta[j][k] * alpha[j] * scale
				}
				cand[k] = best[k] + move
			}
			cv := rss(cand)
			if cv < vals[0] { // better than the worst: accept
				pts[0] = cand
				vals[0] = cv
				improved = true
				break
			}
			scale /= 2
		}
		if !improved {
			// Shrink the simplex toward the best point (the DUD restart
			// recommended when the secant step fails) and keep going
			// unless the simplex has collapsed.
			var size float64
			for j := 0; j < p; j++ {
				for k := 0; k < p; k++ {
					pts[j][k] = best[k] + 0.5*(pts[j][k]-best[k])
					d := pts[j][k] - best[k]
					size += d * d
				}
				vals[j] = rss(pts[j])
			}
			if size < 1e-24 {
				break
			}
			order()
			continue
		}
		prevBest := bestVal
		order()
		if prevBest-vals[p] <= opt.Tol*math.Max(prevBest, 1e-30) {
			stall++
			if stall >= stallLimit {
				break
			}
		} else {
			stall = 0
		}
	}

	order()
	return FitResult{Theta: natural(pts[p]), RSS: vals[p], Iters: iters}, nil
}

// referenceSolveLinear is solveLinear as referenceFitDUD calls it: Gaussian
// elimination with partial pivoting on fresh copies of A and b. It reports
// false for (near-)singular systems.
func referenceSolveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-14 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return x, true
}

// referenceNormalEquations is the secant system as FitDUD built it before
// it took every sum in one pass: it fills ata with dGᵀdG and atb with
// dGᵀr, where the rows of dG are the secant columns, one loop per sum.
// Only the lower triangle of ata is summed; the upper one is its mirror.
func referenceNormalEquations(dG [][]float64, r []float64, ata [][]float64, atb []float64) {
	n := len(r)
	for j := range atb {
		dj := dG[j][:n]
		for k := 0; k <= j; k++ {
			dk := dG[k][:n]
			var s float64
			for i, v := range dj {
				s += v * dk[i]
			}
			ata[j][k] = s
		}
		var s float64
		for i, v := range dj {
			s += v * r[i]
		}
		atb[j] = s
	}
	for j := range atb {
		for k := j + 1; k < len(atb); k++ {
			ata[j][k] = ata[k][j]
		}
	}
}

// sameOrNaN reports whether a and b are the same bit pattern or both NaN.
func sameOrNaN(a, b float64) bool {
	return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzSecantSystemMatchesReference builds the secant system for p = 1, 2
// and 3 with secantSystem and with the reference, which first forms the
// secant columns g[j] − gBest and the residual ys − gBest, and requires
// every entry of ata and atb to have the reference's bits, any two NaNs
// counting as equal. Each of the n rows, p+1 to 256 of them, takes two
// bytes for each of g[0..p−1], gBest and ys: a kind and a value (see
// fuzzSecantEntry; kind 7 is −0).
func FuzzSecantSystemMatchesReference(f *testing.F) {
	st := sim.NewStream(43)
	for _, c := range []struct{ p, n, kinds int }{{1, 64, 2}, {2, 64, 2}, {3, 64, 2}, {1, 2, 8}, {2, 3, 7}, {3, 4, 8}, {2, 40, 8}, {3, 30, 4}} {
		data := make([]byte, 2*(c.p+2)*c.n)
		for i := range data {
			data[i] = byte(st.IntN(256))
			if i%2 == 0 {
				data[i] = byte(st.IntN(c.kinds))
			}
		}
		f.Add(data, uint8(c.p-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, pb uint8) {
		p := int(pb)%3 + 1
		n := min(len(data)/(2*(p+2)), 256)
		if n < p+1 {
			return
		}
		entry := func(i, k int) float64 {
			b := data[2*(i*(p+2)+k):]
			if b[0]%8 == 7 {
				return math.Copysign(0, -1)
			}
			return fuzzSecantEntry(b[0], b[1])
		}
		g, dG := newMatrix(p, n), newMatrix(p, n)
		gBest, ys, r := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			gBest[i], ys[i] = entry(i, p), entry(i, p+1)
			r[i] = ys[i] - gBest[i]
			for j := 0; j < p; j++ {
				g[j][i] = entry(i, j)
				dG[j][i] = g[j][i] - gBest[i]
			}
		}
		ata, atb := newMatrix(p, p), make([]float64, p)
		wantAta, wantAtb := newMatrix(p, p), make([]float64, p)
		secantSystem(g, gBest, ys, ata, atb)
		referenceNormalEquations(dG, r, wantAta, wantAtb)
		for j := 0; j < p; j++ {
			same := sameOrNaN(atb[j], wantAtb[j])
			for k := 0; same && k < p; k++ {
				same = sameOrNaN(ata[j][k], wantAta[j][k])
			}
			if !same {
				t.Fatalf("p=%d, n=%d, row %d: ata %v, atb %v; reference ata %v, atb %v", p, n, j, ata, atb, wantAta, wantAtb)
			}
		}
	})
}

// requireSameFit fails unless FitDUD and referenceFitDUD agree bit for bit:
// the same error presence, Theta, RSS and Iters.
func requireSameFit(t *testing.T, what string, got FitResult, gotErr error, want FitResult, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", what, gotErr, wantErr)
	}
	same := len(got.Theta) == len(want.Theta) &&
		math.Float64bits(got.RSS) == math.Float64bits(want.RSS) &&
		got.Iters == want.Iters
	for j := 0; same && j < len(got.Theta); j++ {
		same = math.Float64bits(got.Theta[j]) == math.Float64bits(want.Theta[j])
	}
	if !same {
		t.Fatalf("%s: got %+v, reference %+v", what, got, want)
	}
}

// requireMatchesReference fits every candidate family of the sample from
// each multi-start seed with both fitters, on the ECDF points
// FitInterarrival regresses on, and requires identical results.
func requireMatchesReference(t *testing.T, samples []float64, family, start int) {
	t.Helper()
	raw := takeRawSums(samples)
	if !(raw.sum.Mean > 0) {
		return
	}
	counts := NewCounts(samples)
	xs, ys := counts.Points(maxRegressionPoints)
	cands := candidateModels(raw, weibullInit(counts, raw.sum.Mean))
	for i, c := range cands {
		if family >= 0 && i != family%len(cands) {
			continue
		}
		for s, f := range multiStarts {
			if start >= 0 && s != start%len(multiStarts) {
				continue
			}
			seed := startFrom(c, f)
			got, gotErr := FitDUD(c.model, xs, ys, seed, FitOptions{})
			want, wantErr := referenceFitDUD(c.model, xs, ys, seed, FitOptions{})
			requireSameFit(t, fmt.Sprintf("%s from %v", c.model.Name, seed), got, gotErr, want, wantErr)
		}
	}
}

// referenceSamples are the inputs of TestFitDUDMatchesReference: ties, a
// point mass with one outlier, gaps near the bottom of the float64 range,
// sizes from 8 to 10^5, and random positive samples of several shapes. The
// two samples rounded up to 0.01, as simulated gaps are, send most of
// their fits into singular re-nudge cycles that run to MaxIter.
func referenceSamples() map[string][]float64 {
	st := sim.NewStream(97)
	ties := make([]float64, 300)
	for i := range ties {
		ties[i] = float64(1 + st.IntN(4))
	}
	outlier := make([]float64, 99, 100)
	for i := range outlier {
		outlier[i] = 4
	}
	outlier = append(outlier, 1000)
	tiny := sampleFrom(Exponential{Rate: 1}, 64, 5)
	for i := range tiny {
		tiny[i] *= 1e-300
	}
	mixed := make([]float64, 200)
	for i := range mixed {
		mixed[i] = 1e-300
		if i%2 == 1 {
			mixed[i] = 1 + st.Float64()
		}
	}
	uniform := make([]float64, 500)
	for i := range uniform {
		uniform[i] = 1e-6 + 1e3*st.Float64()
	}
	return map[string][]float64{
		"ties":                  ties,
		"constant+outlier":      outlier,
		"1e-300 gaps":           tiny,
		"1e-300 and unit":       mixed,
		"n=8 exponential":       sampleFrom(Exponential{Rate: 2}, 8, 1),
		"n=1e3 h2":              sampleFrom(HyperExp2{P: 0.8, Rate1: 5, Rate2: 0.2}, 1000, 2),
		"n=1e5 weibull":         sampleFrom(Weibull{Shape: 0.7, Scale: 30}, 100000, 3),
		"random uniform":        uniform,
		"random lognormal":      sampleFrom(Lognormal{Mu: 2, Sigma: 1.5}, 2000, 4),
		"random erlang":         sampleFrom(Erlang{K: 6, Rate: 3}, 700, 6),
		"random pareto":         sampleFrom(Lomax{Alpha: 2.2, Scale: 10}, 3000, 7),
		"random gamma":          sampleFrom(Gamma{Shape: 0.4, Rate: 0.01}, 1500, 8),
		"random narrow uniform": sampleFrom(Uniform{Lo: 50, Hi: 60}, 400, 9),
		"n=2000 lomax, 0.01":    quantize(sampleFrom(Lomax{Alpha: 3, Scale: 6}, 2000, 10), 0.01),
		"n=300 uniform, 0.01":   quantize(sampleFrom(Uniform{Lo: 1, Hi: 9}, 300, 11), 0.01),
	}
}

// TestFitDUDMatchesReference runs every candidate family from each of the
// three multi-start seeds on every reference sample.
func TestFitDUDMatchesReference(t *testing.T) {
	for name, samples := range referenceSamples() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			requireMatchesReference(t, samples, -1, -1)
		})
	}
}

// fuzzGaps decodes fuzz input two bytes per gap: a mantissa byte (zero
// gives a zero gap, so ties and zeros are common) times a power of two
// from the signed exponent byte, scaled so gaps span about 2^±16.
func fuzzGaps(data []byte) []float64 {
	gaps := make([]float64, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		gaps = append(gaps, math.Ldexp(float64(data[i]), int(int8(data[i+1]))/8))
	}
	return gaps
}

// FuzzFitDUDMatchesReference fits one family from one multi-start seed to
// a fuzzed sample with both fitters and requires identical results. It
// also requires the sample's R², KS and χ² scores to match their per-point
// references.
func FuzzFitDUDMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0}, uint8(0), uint8(0))
	f.Add([]byte{9, 8, 1, 0, 200, 120, 3, 3, 3, 3, 3, 3, 0, 0, 7, 250, 40, 16, 2, 0}, uint8(4), uint8(1))
	f.Add([]byte{255, 127, 1, 128, 255, 127, 1, 128, 255, 127, 1, 128, 255, 127, 1, 128}, uint8(1), uint8(2))
	f.Add([]byte{4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 90, 40}, uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, family, start uint8) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		gaps := fuzzGaps(data)
		if len(gaps) < 8 {
			return
		}
		requireMatchesReference(t, gaps, int(family), int(start))
		requireSameScores(t, gaps)
	})
}

// referenceFits returns a fit of every candidate family of every
// reference sample from every multi-start seed, on the ECDF points
// FitInterarrival regresses on, in the order of the samples' names.
func referenceFits() []workspaceFit {
	samples := referenceSamples()
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	var fits []workspaceFit
	for _, name := range names {
		fits = append(fits, workspaceFits(name, samples[name], maxRegressionPoints)...)
	}
	return fits
}

// TestFitDUDModelCallsCeiling counts FitDUD's model calls over every
// (family, start) fit of referenceFits, each of which must equal
// referenceFitDUD's bit for bit, and bounds the total. Evaluating a
// step-halving candidate only until it is rejected took the count from
// 10,823,595 to 10,778,535. Lower the ceiling when the count falls.
func TestFitDUDModelCallsCeiling(t *testing.T) {
	const maxCalls = 10_778_535
	var calls atomic.Int64
	t.Run("fits", func(t *testing.T) {
		for _, f := range referenceFits() {
			t.Run(f.what, func(t *testing.T) {
				t.Parallel()
				var n int64
				m := f.model
				m.F = func(theta []float64, x float64) float64 {
					n++
					return f.model.F(theta, x)
				}
				got, gotErr := FitDUD(m, f.xs, f.ys, f.seed, FitOptions{})
				want, wantErr := referenceFitDUD(f.model, f.xs, f.ys, f.seed, FitOptions{})
				requireSameFit(t, f.what, got, gotErr, want, wantErr)
				calls.Add(n)
			})
		}
	})
	if c := calls.Load(); c > maxCalls {
		t.Fatalf("%d model calls over the reference fits, want at most %d", c, maxCalls)
	} else {
		t.Logf("%d model calls over the reference fits", c)
	}
}
