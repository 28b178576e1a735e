package stats

import "math"

// RSquared computes the coefficient of determination of predictions yhat
// against observations y: 1 - RSS/TSS.
func RSquared(y, yhat []float64) float64 {
	if len(y) != len(yhat) || len(y) == 0 {
		return math.NaN()
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var rss, tss float64
	for i := range y {
		r := y[i] - yhat[i]
		rss += r * r
		d := y[i] - mean
		tss += d * d
	}
	if tss == 0 {
		if rss == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - rss/tss
}

// KolmogorovSmirnov returns the KS statistic sup_x |F_n(x) - F(x)| of the
// sample against the distribution's CDF.
func KolmogorovSmirnov(sample []float64, d Distribution) float64 {
	return NewCounts(sample).ks(d)
}

// ks is KolmogorovSmirnov on a counted sample. Each run evaluates the CDF
// once, at its value, and compares it with the ECDF steps i/n for the
// ranks i from its first copy to one past its last. The rounded i/n rise
// with i, so |f - i/n| falls and then rises, and its largest value is at
// one end of the run: the two ends give, bit for bit, the maximum of
// |f - i/n| and |(i+1)/n - f| over every copy.
func (c Counts) ks(d Distribution) float64 {
	n := c.N()
	if n == 0 {
		return math.NaN()
	}
	var ks float64
	for j, x := range c.Values {
		f := d.CDF(x)
		for _, i := range [2]int{c.start(j), c.Ends[j]} {
			if v := math.Abs(f - float64(i)/float64(n)); v > ks {
				ks = v
			}
		}
	}
	return ks
}

// ChiSquareResult is the outcome of a χ² goodness-of-fit test.
type ChiSquareResult struct {
	Statistic float64
	DF        int
	PValue    float64
}

// ChiSquareGoF performs a χ² goodness-of-fit test of the sample against the
// distribution, using equal-probability bins (so expected counts are uniform)
// and the given number of estimated parameters for the degrees of freedom.
func ChiSquareGoF(sample []float64, d Distribution, bins, estimatedParams int) ChiSquareResult {
	return NewCounts(sample).chiSquare(d, bins, estimatedParams)
}

// chiSquare is ChiSquareGoF on a counted sample. All copies of a value
// share its CDF, so they fall in one bin together, and each bin takes
// whole runs.
func (c Counts) chiSquare(d Distribution, bins, estimatedParams int) ChiSquareResult {
	n := c.N()
	if n == 0 || bins < 2 {
		return ChiSquareResult{Statistic: math.NaN(), PValue: math.NaN()}
	}

	expected := float64(n) / float64(bins)
	var stat float64
	idx, j := 0, 0 // the rank and the run the next bin starts at
	// f is the CDF at Values[fj], evaluated once per run and carried
	// across bins; fj < 0 until the first evaluation.
	var f float64
	fj := -1
	for b := 0; b < bins; b++ {
		// Bin b covers CDF mass ((b)/bins, (b+1)/bins]; count sample
		// points whose model CDF falls there. The last bin takes the
		// remainder.
		count := n - idx
		if b < bins-1 {
			upper := float64(b+1) / float64(bins)
			start := idx
			for ; j < len(c.Values); j++ {
				if fj != j {
					f, fj = d.CDF(c.Values[j]), j
				}
				if !(f <= upper) {
					break
				}
				idx = c.Ends[j]
			}
			count = idx - start
		}
		diff := float64(count) - expected
		stat += diff * diff / expected
	}
	df := bins - 1 - estimatedParams
	if df < 1 {
		df = 1
	}
	return ChiSquareResult{Statistic: stat, DF: df, PValue: ChiSquareSF(stat, df)}
}

// ChiSquareCounts performs a χ² test of observed category counts against
// expected probabilities (which are normalized internally).
func ChiSquareCounts(observed []int, expectedProb []float64) ChiSquareResult {
	if len(observed) != len(expectedProb) || len(observed) < 2 {
		return ChiSquareResult{Statistic: math.NaN(), PValue: math.NaN()}
	}
	total := 0
	for _, c := range observed {
		total += c
	}
	var probSum float64
	for _, p := range expectedProb {
		probSum += p
	}
	if total == 0 || probSum <= 0 {
		return ChiSquareResult{Statistic: math.NaN(), PValue: math.NaN()}
	}
	var stat float64
	for i, c := range observed {
		e := float64(total) * expectedProb[i] / probSum
		if e <= 0 {
			if c != 0 {
				stat = math.Inf(1)
			}
			continue
		}
		diff := float64(c) - e
		stat += diff * diff / e
	}
	df := len(observed) - 1
	return ChiSquareResult{Statistic: stat, DF: df, PValue: ChiSquareSF(stat, df)}
}

// ChiSquareSF is the survival function (1 - CDF) of the χ² distribution
// with df degrees of freedom: the p-value of a test statistic.
func ChiSquareSF(x float64, df int) float64 {
	if math.IsInf(x, 1) {
		return 0
	}
	if x <= 0 {
		return 1
	}
	return 1 - GammaIncReg(float64(df)/2, x/2)
}

// GammaIncReg is the regularized lower incomplete gamma function P(a, x),
// computed by series expansion for x < a+1 and continued fraction otherwise
// (Numerical Recipes' gammp).
func GammaIncReg(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

func gammaSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
