// Package stats is the statistical-analysis substrate of the reproduction,
// standing in for SAS/STAT in the paper's methodology. It provides
// descriptive statistics, the candidate distribution families used to model
// message inter-arrival times, non-linear least-squares fitting by the
// multivariate secant method (DUD — the method SAS PROC NLIN calls
// METHOD=DUD and the paper says it used), maximum-likelihood and
// method-of-moments initial estimators, and goodness-of-fit measures
// (R², Kolmogorov-Smirnov, χ²).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1)
	StdDev   float64
	CV       float64 // coefficient of variation: StdDev/Mean
	Min, Max float64
	Median   float64
}

// Summarize computes descriptive statistics. It returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	s := moments(xs)
	if s.N > 0 {
		s.Median = Percentile(xs, 0.5)
	}
	return s
}

// moments is Summarize without the median, the one statistic that needs a
// sort. Its sums run in the sample's own order.
func moments(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	min, max := xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	variance := 0.0
	if n > 1 {
		variance = ss / float64(n-1)
	}
	sd := math.Sqrt(variance)
	cv := 0.0
	if mean != 0 {
		cv = sd / mean
	}
	return Summary{
		N: n, Mean: mean, Variance: variance, StdDev: sd, CV: cv,
		Min: min, Max: max,
	}
}

// Percentile returns the p-th quantile (0 <= p <= 1) using linear
// interpolation between order statistics. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
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

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	xs []float64 // sorted sample
}

// NewECDF builds an ECDF from a sample (copied and sorted).
func NewECDF(sample []float64) *ECDF {
	xs := make([]float64, len(sample))
	copy(xs, sample)
	sort.Float64s(xs)
	return &ECDF{xs: xs}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.xs) }

// At returns F_n(x) = fraction of sample <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.xs, x)
	// SearchFloat64s finds the first index >= x; advance over equals.
	for i < len(e.xs) && e.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(e.xs))
}

// Points returns up to max (x, F_n(x)) pairs spread evenly through the
// sorted sample, suitable as regression data. Each point uses the midpoint
// plotting position (i+0.5)/n, which avoids F=0 and F=1 exactly.
func (e *ECDF) Points(max int) (xs, ys []float64) {
	n := len(e.xs)
	if n == 0 {
		return nil, nil
	}
	if max <= 0 || max > n {
		max = n
	}
	xs = make([]float64, 0, max)
	ys = make([]float64, 0, max)
	for k := 0; k < max; k++ {
		i := k * n / max
		xs = append(xs, e.xs[i])
		ys = append(ys, (float64(i)+0.5)/float64(n))
	}
	return xs, ys
}

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins the sample into the given number of equal-width bins
// spanning [min, max]. Values exactly at max land in the last bin.
func NewHistogram(xs []float64, bins int) *Histogram {
	if bins < 1 {
		panic(fmt.Sprintf("stats: %d bins", bins))
	}
	h := &Histogram{Counts: make([]int, bins)}
	if len(xs) == 0 {
		return h
	}
	h.Lo, h.Hi = xs[0], xs[0]
	for _, x := range xs {
		if x < h.Lo {
			h.Lo = x
		}
		if x > h.Hi {
			h.Hi = x
		}
	}
	width := h.Hi - h.Lo
	for _, x := range xs {
		var b int
		if width > 0 {
			pos := float64(bins) * (x - h.Lo) / width
			if !math.IsNaN(pos) {
				b = int(pos)
			}
		}
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}

// Fraction returns the fraction of the sample in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}
