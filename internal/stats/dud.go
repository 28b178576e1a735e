package stats

import (
	"errors"
	"fmt"
	"math"
)

// ParamTransform maps a model parameter between its natural (constrained)
// space and the unconstrained space the optimizer works in. This mirrors
// how PROC NLIN users bound rates and probabilities.
type ParamTransform int

const (
	// TransformIdentity leaves the parameter unconstrained.
	TransformIdentity ParamTransform = iota
	// TransformLog constrains the parameter to be positive.
	TransformLog
	// TransformLogit constrains the parameter to (0, 1).
	TransformLogit
)

func (t ParamTransform) toUnconstrained(v float64) float64 {
	switch t {
	case TransformLog:
		return math.Log(v)
	case TransformLogit:
		return math.Log(v / (1 - v))
	default:
		return v
	}
}

func (t ParamTransform) toNatural(u float64) float64 {
	switch t {
	case TransformLog:
		return math.Exp(u)
	case TransformLogit:
		return 1 / (1 + math.Exp(-u))
	default:
		return u
	}
}

// Model is a parametric curve y = F(theta; x) to be fitted by non-linear
// least squares. Transforms has one entry per parameter.
type Model struct {
	Name       string
	F          func(theta []float64, x float64) float64
	Transforms []ParamTransform
}

// FitOptions controls the DUD iteration.
type FitOptions struct {
	MaxIter int     // default 400
	Tol     float64 // relative RSS improvement tolerance, default 1e-12
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 400
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	return o
}

// stallLimit is how many consecutive iterations without a best-point
// improvement DUD tolerates before declaring convergence.
const stallLimit = 10

// StopReason records why a DUD fit ended: MaxIter iterations, stallLimit
// accepted steps without a Tol gain (converged), or a collapsed simplex.
type StopReason int

const (
	StopMaxIter StopReason = iota
	StopConverged
	StopCollapsed
)

// FitResult reports the outcome of a regression.
type FitResult struct {
	Theta []float64 // fitted parameters, natural space
	RSS   float64   // residual sum of squares
	Iters int
	Stop  StopReason
}

// FitDUD fits the model to (xs, ys) by the DUD ("doesn't use derivatives")
// algorithm of Ralston & Jennrich — the multivariate secant method that SAS
// PROC NLIN provides and that the paper used. theta0 is the initial
// estimate in natural parameter space.
//
// DUD maintains p+1 parameter vectors; the model surface is locally
// approximated by secants through their function values, a linear
// least-squares step predicts a better point, and step halving guards the
// descent. No derivatives of F are ever taken. Each point keeps its model
// vector, so an iteration evaluates the model only at the points it
// replaces, only once per run of equal xs (found once per fit), and a
// step-halving candidate only until its partial RSS passes the worst
// point's, which rejects it whatever the rest holds. The secant system is
// summed in one pass (secantSystem), so p is 1, 2 or 3.
//
// Every buffer of a fit lives in a workspace that is laid out afresh for
// the fit's p and n, and no value is carried from one fit to the next:
// (p+2)·n cells for the model vectors, 4p²+6p+1 for the rest and n ints
// for the runs. FitDUD runs on a fresh one; SummarizeSources gives each
// worker of its pool one workspace for all the fits it runs, so a warm
// fit allocates only the returned Theta.
//
// When the secant system is singular, DUD re-nudges the worst point off
// the best and tries again. For p = 2, singularSecant proves from the
// middle point's secant column alone that the system stays singular, and
// that column depends only on the middle and best points. So once it
// holds, every iteration re-nudges until a new point beats the middle one
// and the simplex reorders. Such a cycle skips the secant algebra, and
// each re-nudged point is evaluated only until its partial RSS passes the
// middle point's: the result is the same, bit for bit, and so is Iters.
// For p = 3 there is no such cheap proof, and every iteration solves.
func FitDUD(m Model, xs, ys []float64, theta0 []float64, opt FitOptions) (FitResult, error) {
	var w workspace
	return w.fitDUD(m, xs, ys, theta0, opt)
}

// workspace is the scratch memory of DUD fits and of score, owned by one
// goroutine at a time. It grows to the largest fit run on it and is laid
// out again for each fit.
type workspace struct {
	cells []float64   // every vector and matrix row of a fit
	rows  [][]float64 // the row headers of a fit's matrices
	ends  []int       // the end of each run of equal xs in a fit
	yhat  []float64   // score's fitted CDF at the regression points
}

// fitDUD is FitDUD on the workspace w.
func (w *workspace) fitDUD(m Model, xs, ys []float64, theta0 []float64, opt FitOptions) (FitResult, error) {
	opt = opt.withDefaults()
	if len(xs) != len(ys) {
		return FitResult{}, fmt.Errorf("stats: %d xs vs %d ys", len(xs), len(ys))
	}
	p := len(theta0)
	if p == 0 || p > 3 {
		return FitResult{}, fmt.Errorf("stats: %d parameters, want 1 to 3", p)
	}
	if len(m.Transforms) != p {
		return FitResult{}, fmt.Errorf("stats: %d transforms for %d parameters", len(m.Transforms), p)
	}
	if len(xs) < p+1 {
		return FitResult{}, fmt.Errorf("stats: %d observations cannot identify %d parameters", len(xs), p)
	}

	// The workspace, cut from w. pts[j] is a simplex point in
	// unconstrained space, vals[j] its RSS and g[j] its model vector
	// F(pts[j]; xs); g[p+1] receives the candidate's vector.
	// The cuts below take (p+2)·n cells for g, 4p²+p for pts, dTheta, ata
	// and lu, and 5p+1 for the five short vectors.
	n := len(xs)
	if need := (p+2)*n + 4*p*p + 6*p + 1; len(w.cells) < need {
		w.cells = make([]float64, need)
	}
	if need := 5*p + 3; len(w.rows) < need {
		w.rows = make([][]float64, need)
	}
	if cap(w.ends) < n {
		w.ends = make([]int, 0, n)
	}
	ends := w.ends[:0]
	for i := 1; i <= n; i++ {
		if i == n || !sameBits(xs[i], xs[i-1]) {
			ends = append(ends, i)
		}
	}
	cells, rows := w.cells, w.rows
	vec := func(k int) []float64 {
		v := cells[:k:k]
		cells = cells[k:]
		return v
	}
	mat := func(r, c int) [][]float64 {
		mr := rows[:r:r]
		rows = rows[r:]
		for i := range mr {
			mr[i] = vec(c)
		}
		return mr
	}
	th := vec(p)
	pts := mat(p+1, p)
	vals := vec(p + 1)
	g := mat(p+2, n)
	dTheta := mat(p, p)
	ata := mat(p, p)
	atb := vec(p)
	lu := mat(p, p)
	alpha := vec(p)
	cand := vec(p)

	// eval fills gv with the model at u and returns the RSS, or +Inf if a
	// residual is NaN or infinite. A run of equal xs, as ties in the
	// sample give, shares one evaluation of the model. The sum accumulates
	// in index order as gv fills, and eval returns it as soon as it
	// exceeds bound, leaving the rest of gv stale: the point's RSS is then
	// above bound whatever the remaining terms. A caller that passes +Inf
	// gets the whole vector, NaN or not, because the secants read every
	// entry.
	eval := func(u, gv []float64, bound float64) float64 {
		for j := range th {
			th[j] = m.Transforms[j].toNatural(u[j])
		}
		var s float64
		i := 0
		for _, end := range ends {
			f := m.F(th, xs[i])
			for ; i < end; i++ {
				gv[i] = f
				e := ys[i] - f
				s += e * e
			}
			if s > bound {
				return s
			}
		}
		if math.IsNaN(s) { // a NaN residual; an infinite one made s +Inf
			return math.Inf(1)
		}
		return s
	}

	// Initial simplex of p+1 points: theta0 plus per-coordinate nudges.
	u0 := pts[0]
	for j := range u0 {
		u0[j] = m.Transforms[j].toUnconstrained(theta0[j])
		if math.IsNaN(u0[j]) || math.IsInf(u0[j], 0) {
			return FitResult{}, fmt.Errorf("stats: initial parameter %d (%v) not in the transform's domain", j, theta0[j])
		}
	}
	vals[0] = eval(u0, g[0], math.Inf(1))
	for j := 0; j < p; j++ {
		u := pts[j+1]
		copy(u, u0)
		step := 0.1 * math.Abs(u[j])
		if step < 0.1 {
			step = 0.1
		}
		u[j] += step
		vals[j+1] = eval(u, g[j+1], math.Inf(1))
	}

	// order sorts points so pts[0] is worst and pts[p] is best.
	order := func() {
		for i := 0; i < len(pts); i++ {
			for k := i + 1; k < len(pts); k++ {
				if vals[k] > vals[i] {
					pts[i], pts[k] = pts[k], pts[i]
					vals[i], vals[k] = vals[k], vals[i]
					g[i], g[k] = g[k], g[i]
				}
			}
		}
	}
	order()

	// renudge answers a degenerate secant set: it moves the worst point
	// off the best and re-sorts, and the next iteration tries again. In a
	// cycle (singularSecant held, and no re-nudge since has reordered the
	// simplex), the new point matters only if it beats the middle one, so
	// its evaluation stops once it cannot. A point cut short stays worst,
	// and the next re-nudge overwrites its stale vector before anything
	// reads it; a point that beats the middle one reorders the simplex and
	// ends the cycle.
	cycle := false
	renudge := func(iters int) {
		best := pts[p]
		for j := range pts[0] {
			pts[0][j] = best[j] + (0.05+1e-3*float64(iters))*(1+math.Abs(best[j]))*sign(float64(j%2)*2-1)
		}
		bound := math.Inf(1)
		if cycle {
			bound = vals[1]
		}
		vals[0] = eval(pts[0], g[0], bound)
		cycle = cycle && vals[0] >= vals[1]
		order()
	}

	iters := 0
	stall := 0
	stop := StopMaxIter
	for ; iters < opt.MaxIter; iters++ {
		best := pts[p]
		bestVal := vals[p]
		gBest := g[p]
		if math.IsInf(bestVal, 1) {
			return FitResult{}, errors.New("stats: model not evaluable near initial estimate")
		}

		if cycle {
			renudge(iters)
			continue
		}

		// Secant approximation around the best point: dTheta[j] = pts[j] -
		// best, and secantSystem's columns F(pts[j]) - F(best).
		for j := 0; j < p; j++ {
			for k := 0; k < p; k++ {
				dTheta[j][k] = pts[j][k] - best[k]
			}
		}
		secantSystem(g[:p], gBest, ys, ata, atb)
		if !solveLinear(ata, atb, lu, alpha) {
			cycle = singularSecant(ata)
			renudge(iters)
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
			for k := 0; k < p; k++ {
				var move float64
				for j := 0; j < p; j++ {
					move += dTheta[j][k] * alpha[j] * scale
				}
				cand[k] = best[k] + move
			}
			cv := eval(cand, g[p+1], vals[0])
			if cv < vals[0] { // better than the worst: accept, with its vector
				pts[0], cand = cand, pts[0]
				g[0], g[p+1] = g[p+1], g[0]
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
				vals[j] = eval(pts[j], g[j], math.Inf(1))
			}
			if size < 1e-24 {
				stop = StopCollapsed
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
				stop = StopConverged
				break
			}
		} else {
			stall = 0
		}
	}

	order()
	theta := make([]float64, p)
	for j := range theta {
		theta[j] = m.Transforms[j].toNatural(pts[p][j])
	}
	return FitResult{Theta: theta, RSS: vals[p], Iters: iters, Stop: stop}, nil
}

// sameBits reports whether a and b are the same float64 bit pattern. Runs
// of equal abscissae share one CDF evaluation only under this test: it
// keeps −0 apart from +0, which a CDF may tell apart, and it always
// matches a value to itself, NaN included, so a run is never empty.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// secantSystem fills ata with DᵀD and atb with Dᵀr in one pass over the
// regression points, where D's columns are the secant columns g[j] − gBest
// and r = ys − gBest. Each sum has its own accumulator, so the processor
// overlaps the chains, and adds its products in index order, as a loop per
// sum would: another order would change the fitted bits. The upper
// triangle of ata mirrors the lower one. p = len(atb) is 1, 2 or 3.
func secantSystem(g [][]float64, gBest, ys []float64, ata [][]float64, atb []float64) {
	n := len(gBest)
	ys = ys[:n]
	switch len(atb) {
	case 1:
		g0 := g[0][:n]
		var a00, b0 float64
		for i, gb := range gBest {
			d0, r := g0[i]-gb, ys[i]-gb
			a00 += d0 * d0
			b0 += d0 * r
		}
		ata[0][0], atb[0] = a00, b0
	case 2:
		g0, g1 := g[0][:n], g[1][:n]
		var a00, a10, a11, b0, b1 float64
		for i, gb := range gBest {
			d0, d1, r := g0[i]-gb, g1[i]-gb, ys[i]-gb
			a00 += d0 * d0
			a10 += d1 * d0
			a11 += d1 * d1
			b0 += d0 * r
			b1 += d1 * r
		}
		ata[0][0], ata[0][1], atb[0] = a00, a10, b0
		ata[1][0], ata[1][1], atb[1] = a10, a11, b1
	case 3:
		g0, g1, g2 := g[0][:n], g[1][:n], g[2][:n]
		var a00, a10, a11, a20, a21, a22, b0, b1, b2 float64
		for i, gb := range gBest {
			d0, d1, d2, r := g0[i]-gb, g1[i]-gb, g2[i]-gb, ys[i]-gb
			a00 += d0 * d0
			a10 += d1 * d0
			a11 += d1 * d1
			a20 += d2 * d0
			a21 += d2 * d1
			a22 += d2 * d2
			b0 += d0 * r
			b1 += d1 * r
			b2 += d2 * r
		}
		ata[0][0], ata[0][1], ata[0][2], atb[0] = a00, a10, a20, b0
		ata[1][0], ata[1][1], ata[1][2], atb[1] = a10, a11, a21, b1
		ata[2][0], ata[2][1], ata[2][2], atb[2] = a20, a21, a22, b2
	}
}

// pivotTol is the smallest pivot magnitude solveLinear accepts.
const pivotTol = 1e-14

// singularSecant reports whether solveLinear must reject ata, a 2×2
// matrix built by secantSystem, whatever the first secant column and atb
// hold, NaN and ±Inf included. That is so when a11, the second column's
// Gram entry, is below pivotTol with a relative margin of 1e-9:
//   - Without a row swap, the second pivot is a11 − a01²/a00, and
//     Cauchy–Schwarz (a01² ≤ a00·a11, up to rounding of O(nε)) keeps it
//     within a11·(1+O(nε)) of zero.
//   - With a swap, |a01| > a00 and the same bound give |a01| <
//     a11·(1+O(nε)), so the first pivot is already below pivotTol.
//   - NaN or ±Inf in the first column ends in solveLinear's NaN check.
//
// FuzzSingularSecantStaysSingular checks the claim. There is no such
// cheap test for p = 3.
func singularSecant(ata [][]float64) bool {
	return len(ata) == 2 && ata[1][1] < pivotTol*(1-1e-9)
}

// solveLinear solves A x = b for small dense systems by Gaussian elimination
// with partial pivoting, eliminating in m, the caller's n×n scratch, and
// leaving the solution in x; a and b are not modified. It reports false for
// (near-)singular systems.
func solveLinear(a [][]float64, b []float64, m [][]float64, x []float64) bool {
	n := len(b)
	for i := range m {
		copy(m[i], a[i])
	}
	copy(x, b)

	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < pivotTol {
			return false
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
			return false
		}
	}
	return true
}
