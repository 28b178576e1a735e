package stats

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// CandidateFit is one fitted distribution family with its goodness-of-fit
// measures, as reported in the paper's tables.
type CandidateFit struct {
	Dist Distribution
	R2   float64 // regression R² against the empirical CDF
	KS   float64 // Kolmogorov-Smirnov statistic
	Chi  ChiSquareResult
	// Iters sums, in start order, the DUD iterations of each start run
	// that improved on the best RSS of the runs before it; runs that
	// failed or did not improve add nothing.
	Iters int
}

// maxRegressionPoints bounds the ECDF points handed to DUD so fitting cost
// is independent of trace length.
const maxRegressionPoints = 256

// chiSquareBins is the equal-probability bin count used for χ² tests.
const chiSquareBins = 20

// FitInterarrival fits every candidate family to the sample by non-linear
// regression on the empirical CDF (method-of-moments or MLE starting
// values, DUD refinement) and returns the candidates sorted best-first by
// R². This is the paper's Section 3 procedure with SAS replaced by the
// stats package. A caller that also needs the sample's Summary calls
// SummarizeFit.
func FitInterarrival(samples []float64) ([]CandidateFit, error) {
	_, fits, err := SummarizeFit(samples)
	return fits, err
}

// SummarizeFit returns Summarize(samples) together with
// FitInterarrival(samples)'s fits and error. It takes the sums that
// depend on the sample's order from the sample as given, then counts one
// sorted copy of it; the median, the regression points, Weibull's seed,
// KS and χ² all come from those Counts. A sample whose mean is not finite
// (a NaN or an infinity in it, or finite values whose sum overflows) is
// an error. The Summary is returned even when the fit fails.
// SummarizeSources runs the same fit on every source of a run and on
// their pooled sample, with no copy.
func SummarizeFit(samples []float64) (Summary, []CandidateFit, error) {
	sorted := slices.Clone(samples)
	sort.Float64s(sorted)
	r := fitSamples([]rawSums{takeRawSums(samples)}, []Counts{countSorted(sorted)}, []int{0}, runtime.GOMAXPROCS(0))[0]
	return r.Summary, r.Fits, r.Err
}

// SampleFit is one sample's SummarizeFit result.
type SampleFit struct {
	Summary Summary
	Fits    []CandidateFit
	Err     error
}

// SummarizeSources fits the inter-arrival samples of every source of a
// run, and their pooled sample, on one worker pool. gaps holds the
// sources' samples back to back, source s's at gaps[off[s]:off[s+1]], and
// the pooled sample is gaps[off[0]:off[len(off)-1]], source after source.
// It returns len(off) results, the sources' and then the pooled one's;
// each is bit for bit what SummarizeFit returns for that sample as it was
// passed in.
//
// It reorders gaps and copies none of it. Each step is one pass of the
// pool over every sample, or every job of every sample:
//  1. It takes every sum that depends on sample order, each source's and
//     the pooled sample's, before anything is reordered.
//  2. It sorts each source's samples in place and counts them, then
//     counts the pooled sample by merging the sources' Counts, with no
//     sort of the pooled sample. That equals counting sort.Float64s of it
//     only because inter-arrival gaps are non-negative whole
//     nanoseconds, never a NaN or a −0 (see mergeCounts).
//  3. It builds each sample's Summary, regression points and candidates.
//  4. It runs every (sample, family, start) DUD fit.
//  5. It scores every (sample, family).
//  6. It ranks each sample's fits in the sample's own slot.
//
// Each step takes the longest sample first, so the pooled sample's work
// overlaps the sources' rather than running alone at the end. Every
// worker reuses one workspace for its fits and scores. Each result has
// its own slot, so nothing depends on how the workers ran, and a panic in
// any fit is raised again on the caller.
func SummarizeSources(gaps []float64, off []int) []SampleFit {
	k := len(off) - 1
	samples := make([][]float64, k+1)
	for s := range k {
		samples[s] = gaps[off[s]:off[s+1]]
	}
	samples[k] = gaps[off[0]:off[k]]
	order := longestFirst(samples)
	procs := runtime.GOMAXPROCS(0)
	raw := make([]rawSums, k+1)
	parallelFor(procs, k+1, func(_, t int) { raw[order[t]] = takeRawSums(samples[order[t]]) })
	counts := make([]Counts, k+1)
	parallelFor(procs, k+1, func(_, t int) {
		if s := order[t]; s < k {
			sort.Float64s(samples[s])
			counts[s] = countSorted(samples[s])
		}
	})
	counts[k] = mergeCounts(counts[:k])
	return fitSamples(raw, counts, order, procs)
}

// longestFirst returns the indices of samples from the longest sample to
// the shortest; equal lengths keep input order.
func longestFirst(samples [][]float64) []int {
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(samples[b]) - len(samples[a]) })
	return order
}

// rawSums are the statistics whose floating-point sums run in the
// sample's own order: its moments and the lognormal seed.
type rawSums struct {
	sum             Summary // without the median
	logMu, logSigma float64
	logOK           bool
}

func takeRawSums(samples []float64) rawSums {
	r := rawSums{sum: moments(samples)}
	r.logMu, r.logSigma, r.logOK = lognormalInit(samples)
	return r
}

// regression is one sample's fitting state: its regression points, its
// candidates, their DUD runs (family-major, one per multi-start) and
// their scored fits (nil where scoring failed).
type regression struct {
	xs, ys []float64
	cands  []candidate
	runs   []dudRun
	fits   []*CandidateFit
}

// fitSamples fits every sample from its raw-order sums and its Counts on
// procs workers, samples in the given order, steps 3 to 6 of
// SummarizeSources. The DUD fits of every sample, every family and every
// start share one pass of the pool, and so do the scores.
func fitSamples(raw []rawSums, counts []Counts, order []int, procs int) []SampleFit {
	out := make([]SampleFit, len(raw))
	regs := make([]regression, len(raw))
	parallelFor(procs, len(order), func(_, t int) {
		s := order[t]
		out[s], regs[s] = prepare(raw[s], counts[s])
	})
	type job struct{ s, i int }
	var fits, scores []job
	for _, s := range order {
		for i := range regs[s].runs {
			fits = append(fits, job{s, i})
		}
		for i := range regs[s].cands {
			scores = append(scores, job{s, i})
		}
	}
	spaces := make([]workspace, procs)
	parallelFor(procs, len(fits), func(w, t int) {
		r := &regs[fits[t].s]
		i := fits[t].i
		cand := r.cands[i/len(multiStarts)]
		seed := startFrom(cand, multiStarts[i%len(multiStarts)])
		r.runs[i].res, r.runs[i].err = spaces[w].fitDUD(cand.model, r.xs, r.ys, seed, FitOptions{})
	})
	parallelFor(procs, len(scores), func(w, t int) {
		r := &regs[scores[t].s]
		i := scores[t].i
		r.fits[i] = spaces[w].score(r.cands[i], r.runs[i*len(multiStarts):(i+1)*len(multiStarts)], r.xs, r.ys, counts[scores[t].s])
	})
	for s, r := range regs {
		if r.cands == nil {
			continue
		}
		out[s].Fits = make([]CandidateFit, 0, len(r.fits))
		for _, fit := range r.fits {
			if fit != nil {
				out[s].Fits = append(out[s].Fits, *fit)
			}
		}
		if len(out[s].Fits) == 0 {
			out[s].Fits, out[s].Err = nil, errors.New("stats: no candidate family could be fitted")
			continue
		}
		sortFits(out[s].Fits)
	}
	return out
}

// prepare takes a sample's Summary from its raw-order sums and Counts,
// and its regression points and candidates. A sample that is too short,
// whose mean is not finite or not positive, or that is a point mass gets
// its whole result here and no regression.
func prepare(raw rawSums, c Counts) (SampleFit, regression) {
	sum := raw.sum
	if sum.N > 0 {
		sum.Median = c.quantile(0.5)
	}
	fail := func(err error) (SampleFit, regression) { return SampleFit{Summary: sum, Err: err}, regression{} }
	if sum.N < 8 {
		return fail(errors.New("stats: too few samples to characterize"))
	}
	if math.IsNaN(sum.Mean) || math.IsInf(sum.Mean, 0) {
		return fail(fmt.Errorf("stats: sample mean is %v; samples must be finite and sum within float64 range", sum.Mean))
	}
	if sum.Mean <= 0 {
		return fail(errors.New("stats: non-positive mean; inter-arrival samples must be positive"))
	}

	// Degenerate sample: a point mass. Continuous families cannot beat
	// it, and regression on a single x is ill-posed.
	if sum.StdDev <= 1e-12*math.Abs(sum.Mean) {
		return SampleFit{Summary: sum, Fits: []CandidateFit{{
			Dist: Deterministic{Value: sum.Mean},
			R2:   1, KS: 0,
			Chi: ChiSquareResult{Statistic: 0, DF: 1, PValue: 1},
		}}}, regression{}
	}

	r := regression{cands: candidateModels(raw, weibullInit(c, sum.Mean))}
	r.xs, r.ys = c.Points(maxRegressionPoints)
	r.runs = make([]dudRun, len(r.cands)*len(multiStarts))
	r.fits = make([]*CandidateFit, len(r.cands))
	return SampleFit{Summary: sum}, r
}

// sortFits ranks candidate fits best-first under a total order: R²
// descending, then KS ascending (smaller is better), then family name.
// Ranking by R² alone is a partial order: two families that fit a
// sample equally well (R² ties are common on near-degenerate phase
// samples) would keep whatever relative order candidate enumeration
// produced, so the selected family — and with it the serialized
// characterization — could change between runs. The repolint
// determinism analyzer flags the tie-less form this replaces.
func sortFits(fits []CandidateFit) {
	sort.SliceStable(fits, func(i, j int) bool {
		if fits[i].R2 != fits[j].R2 {
			return fits[i].R2 > fits[j].R2
		}
		if fits[i].KS != fits[j].KS {
			return fits[i].KS < fits[j].KS
		}
		return fits[i].Dist.Name() < fits[j].Dist.Name()
	})
}

// candidate couples a family's CDF model with its initial estimate and a
// constructor back from the fitted parameter vector.
type candidate struct {
	model Model
	init  []float64
	build func(theta []float64) Distribution
	// nparams counted against the χ² degrees of freedom.
	nparams int
}

// candidateModels builds every family's model and seed for a sample from
// its raw-order sums and Weibull's seed.
func candidateModels(raw rawSums, weibull []float64) []candidate {
	sum := raw.sum
	mean := sum.Mean
	cv := sum.CV

	cands := []candidate{
		{
			model: Model{
				Name: "exponential",
				F: func(th []float64, x float64) float64 {
					return Exponential{Rate: th[0]}.CDF(x)
				},
				Transforms: []ParamTransform{TransformLog},
			},
			init:    []float64{1 / mean},
			build:   func(th []float64) Distribution { return Exponential{Rate: th[0]} },
			nparams: 1,
		},
		{
			model: Model{
				Name: "weibull",
				F: func(th []float64, x float64) float64 {
					return Weibull{Shape: th[0], Scale: th[1]}.CDF(x)
				},
				Transforms: []ParamTransform{TransformLog, TransformLog},
			},
			init:    weibull,
			build:   func(th []float64) Distribution { return Weibull{Shape: th[0], Scale: th[1]} },
			nparams: 2,
		},
		{
			model: Model{
				Name: "uniform",
				F: func(th []float64, x float64) float64 {
					if th[1] <= th[0] {
						return math.NaN()
					}
					return Uniform{Lo: th[0], Hi: th[1]}.CDF(x)
				},
				Transforms: []ParamTransform{TransformIdentity, TransformIdentity},
			},
			init:    []float64{sum.Min, sum.Max},
			build:   func(th []float64) Distribution { return Uniform{Lo: th[0], Hi: th[1]} },
			nparams: 2,
		},
		{
			model: Model{
				Name: "normal",
				F: func(th []float64, x float64) float64 {
					return Normal{Mu: th[0], Sigma: th[1]}.CDF(x)
				},
				Transforms: []ParamTransform{TransformIdentity, TransformLog},
			},
			init:    []float64{mean, sum.StdDev},
			build:   func(th []float64) Distribution { return Normal{Mu: th[0], Sigma: th[1]} },
			nparams: 2,
		},
	}

	// Hyperexponential models CV > 1 (bursty traffic). Seed it from the
	// balanced-means moment match when valid, else a generic split.
	p, l1, l2 := hyperInit(mean, cv)
	cands = append(cands, candidate{
		model: Model{
			Name: "hyperexponential",
			F: func(th []float64, x float64) float64 {
				return HyperExp2{P: th[0], Rate1: th[1], Rate2: th[2]}.CDF(x)
			},
			Transforms: []ParamTransform{TransformLogit, TransformLog, TransformLog},
		},
		init:    []float64{p, l1, l2},
		build:   func(th []float64) Distribution { return HyperExp2{P: th[0], Rate1: th[1], Rate2: th[2]} },
		nparams: 3,
	})

	// Erlang-k models CV < 1; k is discrete so it is chosen by moments and
	// only the rate is regressed.
	k := erlangStages(cv)
	cands = append(cands, candidate{
		model: Model{
			Name: "erlang",
			F: func(th []float64, x float64) float64 {
				return Erlang{K: k, Rate: th[0]}.CDF(x)
			},
			Transforms: []ParamTransform{TransformLog},
		},
		init:    []float64{float64(k) / mean},
		build:   func(th []float64) Distribution { return Erlang{K: k, Rate: th[0]} },
		nparams: 2, // k and rate
	})

	// Gamma, seeded by moments (k = 1/CV², rate = k/mean).
	gk := 1.0
	if cv > 0 {
		gk = 1 / (cv * cv)
	}
	if gk < 0.05 {
		gk = 0.05
	}
	if gk > 200 {
		gk = 200
	}
	cands = append(cands, candidate{
		model: Model{
			Name: "gamma",
			F: func(th []float64, x float64) float64 {
				return Gamma{Shape: th[0], Rate: th[1]}.CDF(x)
			},
			Transforms: []ParamTransform{TransformLog, TransformLog},
		},
		init:    []float64{gk, gk / mean},
		build:   func(th []float64) Distribution { return Gamma{Shape: th[0], Rate: th[1]} },
		nparams: 2,
	})

	// Pareto (Lomax), seeded for a moderately heavy tail.
	pa := 2.5
	if cv > 1 {
		c2 := cv * cv
		if a := 2 * c2 / (c2 - 1); a > 2.05 && a < 50 {
			pa = a
		}
	}
	cands = append(cands, candidate{
		model: Model{
			Name: "pareto",
			F: func(th []float64, x float64) float64 {
				return Lomax{Alpha: th[0], Scale: th[1]}.CDF(x)
			},
			Transforms: []ParamTransform{TransformLog, TransformLog},
		},
		init:    []float64{pa, mean * (pa - 1)},
		build:   func(th []float64) Distribution { return Lomax{Alpha: th[0], Scale: th[1]} },
		nparams: 2,
	})

	// Lognormal, seeded by MLE on the positive subsample.
	if mu, sigma := raw.logMu, raw.logSigma; raw.logOK {
		cands = append(cands, candidate{
			model: Model{
				Name: "lognormal",
				F: func(th []float64, x float64) float64 {
					return Lognormal{Mu: th[0], Sigma: th[1]}.CDF(x)
				},
				Transforms: []ParamTransform{TransformIdentity, TransformLog},
			},
			init:    []float64{mu, sigma},
			build:   func(th []float64) Distribution { return Lognormal{Mu: th[0], Sigma: th[1]} },
			nparams: 2,
		})
	}
	return cands
}

// multiStarts scale each family's moment or MLE seed into the starts DUD
// runs from, to dodge the local minima multi-parameter families (H2
// especially) suffer from.
var multiStarts = []float64{1, 0.3, 3}

// startFrom scales the candidate's initial estimate by one multi-start
// factor, staying inside each parameter's domain.
func startFrom(c candidate, f float64) []float64 {
	seed := make([]float64, len(c.init))
	for j, v := range c.init {
		seed[j] = scaleParam(c.model.Transforms[j], v, f)
	}
	return seed
}

// dudRun is the outcome of one DUD fit from one start.
type dudRun struct {
	res FitResult
	err error
}

// parallelFor calls f(w, i) for every i in [0, n) from min(workers, n)
// goroutines that pull indices from a shared counter, and returns once
// every call has. w is the calling goroutine's index in [0, min(workers,
// n)), so no two calls that run at once share a w. A panic in f is raised
// again on the caller's goroutine, so the caller's recovery boundary
// still catches it.
func parallelFor(workers, n int, f func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
				}
			}()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(w, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// score keeps the family's best run, in start order, and scores it on the
// workspace w: R² against the ECDF points (xs, ys), KS and χ² against the
// counted sample.
func (w *workspace) score(c candidate, runs []dudRun, xs, ys []float64, counts Counts) *CandidateFit {
	theta := c.init
	iters := 0
	bestRSS := math.Inf(1)
	for _, r := range runs {
		if r.err == nil && r.res.RSS < bestRSS {
			bestRSS = r.res.RSS
			theta = r.res.Theta
			iters += r.res.Iters
		}
	}
	dist := c.build(theta)
	if len(w.yhat) < len(xs) {
		w.yhat = make([]float64, len(xs))
	}
	yhat := w.yhat[:len(xs)]
	if !fillCDF(yhat, xs, dist) {
		// Fall back to the initial estimate if refinement went astray.
		dist = c.build(c.init)
		if !fillCDF(yhat, xs, dist) {
			return nil
		}
	}
	r2 := RSquared(ys, yhat)
	if math.IsNaN(r2) || math.IsInf(r2, 0) {
		return nil
	}
	return &CandidateFit{
		Dist:  dist,
		R2:    r2,
		KS:    counts.ks(dist),
		Chi:   counts.chiSquare(dist, chiSquareBins, c.nparams),
		Iters: iters,
	}
}

// fillCDF sets yhat[i] to d's CDF at xs[i], evaluating it once per run of
// equal xs, and reports false, leaving yhat partly filled, at the first
// NaN.
func fillCDF(yhat, xs []float64, d Distribution) bool {
	for i := 0; i < len(xs); {
		x := xs[i]
		f := d.CDF(x)
		if math.IsNaN(f) {
			return false
		}
		for ; i < len(xs) && sameBits(xs[i], x); i++ {
			yhat[i] = f
		}
	}
	return true
}

// scaleParam perturbs a starting value for multi-start fitting in a way
// that stays inside the parameter's domain.
func scaleParam(tr ParamTransform, v, f float64) float64 {
	switch tr {
	case TransformLog:
		return v * f
	case TransformLogit:
		// Pull toward 0.5 or the edges while staying in (0,1).
		u := math.Log(v/(1-v)) * f
		return 1 / (1 + math.Exp(-u))
	default:
		if f == 1 {
			return v
		}
		return v * f
	}
}

// hyperInit returns balanced-means moment-matched H2 parameters for the
// given mean and CV, or a generic bursty split when CV <= 1.
func hyperInit(mean, cv float64) (p, l1, l2 float64) {
	c2 := cv * cv
	if c2 <= 1.0001 {
		c2 = 2 // generic burstiness seed; DUD moves it if the data disagree
	}
	p = 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
	l1 = 2 * p / mean
	l2 = 2 * (1 - p) / mean
	return p, l1, l2
}

// erlangStages chooses k ≈ 1/CV², clamped to a sane range.
func erlangStages(cv float64) int {
	if cv <= 0 {
		return 50
	}
	k := int(math.Round(1 / (cv * cv)))
	if k < 1 {
		k = 1
	}
	if k > 50 {
		k = 50
	}
	return k
}

// weibullInit estimates (shape, scale) by linear regression on the
// linearized CDF: ln(-ln(1-F)) = k·ln x - k·ln λ, over the positive
// values of a counted sample (they are its last runs). It takes ln x once
// per run; the plotting position F depends on the rank, so the sums still
// add one term per value, in rank order.
func weibullInit(c Counts, mean float64) []float64 {
	first := sort.Search(len(c.Values), func(j int) bool { return c.Values[j] > 0 })
	below := c.start(first) // the count of values <= 0
	if c.N()-below < 8 {
		return []float64{1, mean}
	}
	n := float64(c.N() - below)
	var sx, sy, sxx, sxy float64
	var m int
	for j := first; j < len(c.Values); j++ {
		lx := math.Log(c.Values[j])
		for ; m < c.Ends[j]-below; m++ {
			f := (float64(m) + 0.5) / n
			ly := math.Log(-math.Log(1 - f))
			sx += lx
			sy += ly
			sxx += lx * lx
			sxy += lx * ly
		}
	}
	den := float64(m)*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return []float64{1, mean}
	}
	shape := (float64(m)*sxy - sx*sy) / den
	if shape <= 0.05 || math.IsNaN(shape) {
		return []float64{1, mean}
	}
	intercept := (sy - shape*sx) / float64(m)
	scale := math.Exp(-intercept / shape)
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = mean
	}
	return []float64{shape, scale}
}

// lognormalInit is the MLE on the positive subsample. It makes two passes
// that each take the logs again rather than allocate a slice of them; the
// sums run in the sample's order, as moments would run them over that
// slice, so the estimate is the same bit for bit.
func lognormalInit(samples []float64) (mu, sigma float64, ok bool) {
	n := 0
	var sum float64
	for _, x := range samples {
		if x > 0 {
			n++
			sum += math.Log(x)
		}
	}
	if n < 8 {
		return 0, 0, false
	}
	mu = sum / float64(n)
	var ss float64
	for _, x := range samples {
		if x > 0 {
			d := math.Log(x) - mu
			ss += d * d
		}
	}
	sigma = math.Sqrt(ss / float64(n-1))
	if sigma <= 0 {
		return 0, 0, false
	}
	return mu, sigma, true
}
