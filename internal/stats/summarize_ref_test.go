package stats

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// referenceSummarizeFit is SummarizeFit as it stood before samples were
// counted: it sorts a full copy of the sample, reads the median, the
// regression points and Weibull's seed off that copy value by value, and
// scores KS and χ² point by point. It is kept as the oracle that
// SummarizeFit and SummarizeSources must match bit for bit. The DUD fits,
// fillCDF, the moments and the lognormal seed are shared with the code
// under test; TestFitDUDMatchesReference, TestScoringMatchesReference and
// TestLognormalInitMatchesMoments check those on their own.
func referenceSummarizeFit(samples []float64) (Summary, []CandidateFit, error) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	sum := moments(samples)
	if len(samples) > 0 {
		sum.Median = referencePercentileSorted(sorted, 0.5)
	}
	if len(samples) < 8 {
		return sum, nil, errors.New("stats: too few samples to characterize")
	}
	if math.IsNaN(sum.Mean) || math.IsInf(sum.Mean, 0) {
		return sum, nil, fmt.Errorf("stats: sample mean is %v; samples must be finite and sum within float64 range", sum.Mean)
	}
	if sum.Mean <= 0 {
		return sum, nil, errors.New("stats: non-positive mean; inter-arrival samples must be positive")
	}
	if sum.StdDev <= 1e-12*math.Abs(sum.Mean) {
		return sum, []CandidateFit{{
			Dist: Deterministic{Value: sum.Mean},
			R2:   1, KS: 0,
			Chi: ChiSquareResult{Statistic: 0, DF: 1, PValue: 1},
		}}, nil
	}
	xs, ys := referencePoints(sorted, maxRegressionPoints)
	raw := rawSums{sum: sum}
	raw.logMu, raw.logSigma, raw.logOK = lognormalInit(samples)
	var out []CandidateFit
	for _, c := range candidateModels(raw, referenceWeibullInit(sorted, sum.Mean)) {
		theta, iters, bestRSS := c.init, 0, math.Inf(1)
		for _, f := range multiStarts {
			res, err := FitDUD(c.model, xs, ys, startFrom(c, f), FitOptions{})
			if err == nil && res.RSS < bestRSS {
				bestRSS, theta = res.RSS, res.Theta
				iters += res.Iters
			}
		}
		dist := c.build(theta)
		yhat := make([]float64, len(xs))
		if !fillCDF(yhat, xs, dist) {
			dist = c.build(c.init)
			if !fillCDF(yhat, xs, dist) {
				continue
			}
		}
		r2 := RSquared(ys, yhat)
		if math.IsNaN(r2) || math.IsInf(r2, 0) {
			continue
		}
		out = append(out, CandidateFit{
			Dist:  dist,
			R2:    r2,
			KS:    referenceKSSorted(sorted, dist),
			Chi:   referenceChiSquareSorted(sorted, dist, chiSquareBins, c.nparams),
			Iters: iters,
		})
	}
	if len(out) == 0 {
		return sum, nil, errors.New("stats: no candidate family could be fitted")
	}
	sortFits(out)
	return sum, out, nil
}

// referencePercentileSorted is the median's interpolation on the sorted
// copy, as percentileSorted computed it.
func referencePercentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// referencePoints is ECDF.Points on the sorted copy.
func referencePoints(sorted []float64, max int) (xs, ys []float64) {
	n := len(sorted)
	if max <= 0 || max > n {
		max = n
	}
	for k := 0; k < max; k++ {
		i := k * n / max
		xs = append(xs, sorted[i])
		ys = append(ys, (float64(i)+0.5)/float64(n))
	}
	return xs, ys
}

// referenceWeibullInit is weibullInit on the sorted copy, taking ln x once
// per value.
func referenceWeibullInit(sorted []float64, mean float64) []float64 {
	xs := sorted[sort.Search(len(sorted), func(i int) bool { return sorted[i] > 0 }):]
	if len(xs) < 8 {
		return []float64{1, mean}
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	var m int
	for i, x := range xs {
		f := (float64(i) + 0.5) / n
		lx := math.Log(x)
		ly := math.Log(-math.Log(1 - f))
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		m++
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

// summaryFitText renders a SummarizeFit result with every float in its
// shortest exact form, NaN and −0 included, so equal texts are equal bits.
func summaryFitText(sum Summary, fits []CandidateFit, err error) string {
	return fmt.Sprintf("%+v\n%+v\n%v", sum, fits, err)
}

// requireSameAsReference requires a SummarizeFit result for sample to be
// referenceSummarizeFit's, bit for bit.
func requireSameAsReference(t *testing.T, what string, sample []float64, sum Summary, fits []CandidateFit, err error) {
	t.Helper()
	got := summaryFitText(sum, fits, err)
	if want := summaryFitText(referenceSummarizeFit(sample)); got != want {
		t.Fatalf("%s: got\n%s\nreference\n%s", what, got, want)
	}
}

// oracleSamples is the corpus SummarizeFit is checked on against
// referenceSummarizeFit: referenceSamples(); the eight samples of
// TestFitInterarrivalConcurrentMatchesSequential, raw and quantized to
// five grids (48 samples); and adversarial inputs for the generic path.
func oracleSamples() map[string][]float64 {
	out := referenceSamples()
	for i, s := range concurrentSamples() {
		out[fmt.Sprintf("concurrent %d", i)] = s
		for _, unit := range []float64{0.01, 0.1, 1, 5, 25} {
			out[fmt.Sprintf("concurrent %d, %v", i, unit)] = quantize(slices.Clone(s), unit)
		}
	}
	negZero := math.Copysign(0, -1)
	allTies := make([]float64, 500)
	for i := range allTies {
		allTies[i] = 3
	}
	signedZeros := make([]float64, 0, 60)
	for i := range 60 {
		signedZeros = append(signedZeros, []float64{negZero, 0, float64(i%7 + 1)}[i%3])
	}
	for name, s := range map[string][]float64{
		"n=0":              nil,
		"n=7":              {3, 1, 4, 1, 5, 9, 2},
		"all ties":         allTies,
		"n=8":              {5, 5, 5, 5, 5, 5, 5, 9},
		"constant+outlier": {4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 1e6},
		"±0":               signedZeros,
		"NaN":              {1, 2, 3, math.NaN(), 5, 6, 7, 8, 9, math.NaN()},
		"±Inf":             {1, math.Inf(1), 3, 4, math.Inf(-1), 6, 7, 8, 9},
		"+Inf":             {1, 2, 3, 4, 5, 6, 7, math.Inf(1), 9},
		"negatives":        {-3, 1, -4, 1, 5, 9, -2, 6, 5, 3, 5, 0, negZero, 8, 9, 7},
		"1e-300 and zeros": {0, 1e-300, 0, 2e-300, 1e-300, 0, 5e-300, 1e-300, 3e-300, 0, 1e-300},
		"point mass at 0":  {0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		out["adversarial "+name] = s
	}
	return out
}

// concurrentSamples are the samples TestFitInterarrivalConcurrentMatchesSequential
// fits from eight goroutines.
func concurrentSamples() [][]float64 {
	dists := []Distribution{
		Exponential{Rate: 0.5},
		HyperExp2{P: 0.7, Rate1: 3, Rate2: 0.3},
		Erlang{K: 4, Rate: 2},
		Weibull{Shape: 1.6, Scale: 8},
		Uniform{Lo: 1, Hi: 9},
		Lognormal{Mu: 1, Sigma: 0.8},
		Gamma{Shape: 2.5, Rate: 0.4},
		Lomax{Alpha: 3, Scale: 6},
	}
	samples := make([][]float64, len(dists))
	for i, d := range dists {
		samples[i] = sampleFrom(d, 600+100*i, uint64(20+i))
	}
	return samples
}

// TestCountsMatchSortedSample requires Counts to read the sorted sample's
// order statistics: its runs expand back to the sorted copy, the merge of
// a split sample's Counts counts the whole, and quantiles, the regression
// points and the ECDF agree with their value-by-value forms.
func TestCountsMatchSortedSample(t *testing.T) {
	for name, s := range oracleSamples() {
		sorted := slices.Clone(s)
		sort.Float64s(sorted)
		c := NewCounts(s)
		var expanded []float64
		for j, x := range c.Values {
			for range c.count(j) {
				expanded = append(expanded, x)
			}
		}
		if fmt.Sprint(expanded) != fmt.Sprint(sorted) || c.N() != len(s) {
			t.Fatalf("%s: Counts expand to %v, sorted sample %v", name, expanded, sorted)
		}
		if len(s) == 0 {
			continue
		}
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			if got, want := c.quantile(p), referencePercentileSorted(sorted, p); !sameBits(got, want) {
				t.Fatalf("%s: quantile(%v) = %v, want %v", name, p, got, want)
			}
		}
		for _, max := range []int{1, 7, maxRegressionPoints, len(s) + 1} {
			gx, gy := c.Points(max)
			wx, wy := referencePoints(sorted, max)
			if len(gx) != len(wx) {
				t.Fatalf("%s: Points(%d) gives %d points, want %d", name, max, len(gx), len(wx))
			}
			for i := range wx {
				if !sameBits(gx[i], wx[i]) || !sameBits(gy[i], wy[i]) {
					t.Fatalf("%s: Points(%d)[%d] = (%v, %v), want (%v, %v)", name, max, i, gx[i], gy[i], wx[i], wy[i])
				}
			}
		}
		if mean := moments(s).Mean; mean > 0 && !math.IsInf(mean, 0) {
			got, want := weibullInit(c, mean), referenceWeibullInit(sorted, mean)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Weibull seed %v, want %v", name, got, want)
			}
		}
		for _, x := range sorted {
			if math.IsNaN(x) {
				continue
			}
			want := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })) / float64(len(s))
			if got := c.At(x); got != want {
				t.Fatalf("%s: At(%v) = %v, want %v", name, x, got, want)
			}
		}
	}
}

// TestMergeCountsCountsThePooledSample splits whole-nanosecond samples
// into sources, some empty, and requires the merge of the sources' Counts
// to count the sorted pooled sample exactly.
func TestMergeCountsCountsThePooledSample(t *testing.T) {
	for name, s := range oracleSamples() {
		if !wholeNanoseconds(s) {
			continue
		}
		for _, k := range []int{1, 2, 5, 16} {
			off := splitOffsets(len(s), k)
			parts := make([]Counts, k)
			for i := range parts {
				parts[i] = NewCounts(s[off[i]:off[i+1]])
			}
			if got, want := mergeCounts(parts), NewCounts(s); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %d sources: merged %+v, want %+v", name, k, got, want)
			}
		}
	}
}

// wholeNanoseconds reports whether every value is a non-negative whole
// number other than −0, as an inter-arrival gap is.
func wholeNanoseconds(s []float64) bool {
	for _, x := range s {
		if !(x >= 0) || x != math.Trunc(x) || math.Signbit(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// splitOffsets cuts n values into k sources of uneven lengths, the first
// ones shortest: source s holds [n·s²/k², n·(s+1)²/k²).
func splitOffsets(n, k int) []int {
	off := make([]int, k+1)
	for s := range off {
		off[s] = n * s * s / (k * k)
	}
	return off
}

// requireSourcesMatchReference runs SummarizeSources on a copy of gaps
// cut at off, and requires each source's result and the pooled one to be
// referenceSummarizeFit's for that sample as given, bit for bit.
func requireSourcesMatchReference(t *testing.T, what string, gaps []float64, off []int) {
	t.Helper()
	got := SummarizeSources(slices.Clone(gaps), off)
	if len(got) != len(off) {
		t.Fatalf("%s: %d results for %d sources", what, len(got), len(off)-1)
	}
	for s := range len(off) - 1 {
		r := got[s]
		requireSameAsReference(t, fmt.Sprintf("%s, source %d", what, s), gaps[off[s]:off[s+1]], r.Summary, r.Fits, r.Err)
	}
	r := got[len(off)-1]
	requireSameAsReference(t, what+", pooled", gaps[off[0]:off[len(off)-1]], r.Summary, r.Fits, r.Err)
}

// TestSummarizeFitMatchesReference requires SummarizeFit, which fits from
// Counts, to give referenceSummarizeFit's results bit for bit on the
// oracle corpus, and SummarizeSources to give them on every
// whole-nanosecond sample of it cut into four uneven sources.
func TestSummarizeFitMatchesReference(t *testing.T) {
	samples := oracleSamples()
	if testing.Short() {
		delete(samples, "n=1e5 weibull")
	}
	for name, s := range samples {
		t.Run(name, func(t *testing.T) {
			sum, fits, err := SummarizeFit(s)
			requireSameAsReference(t, "SummarizeFit", s, sum, fits, err)
			if wholeNanoseconds(s) {
				requireSourcesMatchReference(t, "SummarizeSources", s, splitOffsets(len(s), 4))
			}
		})
	}
}

// FuzzSummarizeFitMatchesReference requires SummarizeFit to match
// referenceSummarizeFit on a fuzzed sample of up to 256 values, and
// SummarizeSources to match it on the sample's whole-nanosecond floor cut
// into up to four sources. Every input fits several samples in full, so
// the sample is kept short enough for a smoke run to try hundreds.
func FuzzSummarizeFitMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0}, uint8(0))
	f.Add([]byte{9, 8, 1, 0, 200, 120, 3, 3, 3, 3, 3, 3, 0, 0, 7, 250, 40, 16, 2, 0}, uint8(3))
	f.Add([]byte{4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 90, 40}, uint8(7))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, sources uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		gaps := fuzzGaps(data)
		sum, fits, err := SummarizeFit(gaps)
		requireSameAsReference(t, "SummarizeFit", gaps, sum, fits, err)
		for i, g := range gaps {
			gaps[i] = math.Floor(g)
		}
		requireSourcesMatchReference(t, "SummarizeSources", gaps, splitOffsets(len(gaps), 1+int(sources%4)))
	})
}

// TestSummarizeSourcesLongestFirstInSlot fits sources of mixed lengths,
// among them one too short to fit and one point mass, on one pool at
// GOMAXPROCS 1, 2 and 4. The pool must take them longest first, the
// pooled sample before all, ties in input order, and each slot must equal
// SummarizeFit of its sample as passed in.
func TestSummarizeSourcesLongestFirstInSlot(t *testing.T) {
	point := make([]float64, 40)
	for i := range point {
		point[i] = 2000
	}
	sources := [][]float64{
		{1, 2, 3, 4, 5},
		quantize(sampleFrom(HyperExp2{P: 0.7, Rate1: 0.03, Rate2: 0.003}, 300, 1), 1),
		point,
		quantize(sampleFrom(Exponential{Rate: 0.01}, 1200, 2), 25),
		quantize(sampleFrom(Erlang{K: 4, Rate: 0.02}, 300, 3), 1),
	}
	var gaps []float64
	off := []int{0}
	for _, s := range sources {
		gaps = append(gaps, s...)
		off = append(off, len(gaps))
	}
	if got, want := longestFirst(append(slices.Clone(sources), gaps)), []int{5, 3, 1, 4, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("start order %v, want %v", got, want)
	}
	want := make([]SampleFit, len(sources)+1)
	for i, s := range append(slices.Clone(sources), gaps) {
		r := &want[i]
		r.Summary, r.Fits, r.Err = SummarizeFit(s)
	}
	if want[0].Err == nil || want[2].Fits[0].Dist.Name() != (Deterministic{}).Name() {
		t.Fatal("the short sample must fail and the point mass fit Deterministic")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := SummarizeSources(slices.Clone(gaps), off)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("GOMAXPROCS %d: slot %d = %+v, want %+v", procs, i, got[i], want[i])
			}
		}
	}
}
