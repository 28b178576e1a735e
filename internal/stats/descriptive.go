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
	"math"
	"slices"
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
	return NewCounts(xs).quantile(p)
}

// Counts is a sample's order statistics, and so its empirical CDF: the
// run-length encoding of the sorted sample over runs of bit-equal values.
// Values[j] is the j-th run's value, ascending, and Ends[j] the rank one
// past its last copy, so the run holds sorted ranks [Ends[j-1], Ends[j])
// and Ends[len(Ends)-1] is the sample size. An inter-arrival sample is
// mostly ties, so Counts is far smaller than the sample, and everything
// read off it is evaluated once per run rather than once per value.
type Counts struct {
	Values []float64
	Ends   []int
}

// NewCounts returns the order statistics of a sample, from a sorted copy.
func NewCounts(sample []float64) Counts {
	sorted := slices.Clone(sample)
	sort.Float64s(sorted)
	return countSorted(sorted)
}

// countSorted run-length encodes a sorted sample. It counts the runs
// first, so both slices are allocated once, at their final size.
func countSorted(sorted []float64) Counts {
	runs := 0
	for i, x := range sorted {
		if i == 0 || !sameBits(x, sorted[i-1]) {
			runs++
		}
	}
	c := Counts{Values: make([]float64, runs), Ends: make([]int, runs)}
	j := -1
	for i, x := range sorted {
		if i == 0 || !sameBits(x, sorted[i-1]) {
			j++
			c.Values[j] = x
		}
		c.Ends[j] = i + 1
	}
	return c
}

// mergeCounts returns the order statistics of the union of the samples
// parts counts, by a k-way merge of their runs; equal values from
// different parts join one run. It counts sort.Float64s of the
// concatenated samples only when no part holds a NaN or a −0: sort places
// a NaN first, which < does not, and a −0 ties with +0 in whatever order
// the sort leaves them. It merges twice, first to count the runs, so
// both slices are allocated once, at their final size.
func mergeCounts(parts []Counts) Counts {
	runs := 0
	mergeRuns(parts, func(float64, int) { runs++ })
	c := Counts{Values: make([]float64, 0, runs), Ends: make([]int, 0, runs)}
	mergeRuns(parts, func(x float64, end int) {
		c.Values = append(c.Values, x)
		c.Ends = append(c.Ends, end)
	})
	return c
}

// mergeRuns calls run(x, end) for each run of the merge of parts, in
// ascending order: its value and the rank one past its last copy.
func mergeRuns(parts []Counts, run func(x float64, end int)) {
	next := make([]int, len(parts)) // each part's next run
	n := 0
	for {
		k := -1 // the part whose next value is least
		for i, p := range parts {
			if next[i] < len(p.Values) && (k < 0 || p.Values[next[i]] < parts[k].Values[next[k]]) {
				k = i
			}
		}
		if k < 0 {
			return
		}
		x := parts[k].Values[next[k]]
		for i, p := range parts {
			if j := next[i]; j < len(p.Values) && p.Values[j] == x {
				n += p.count(j)
				next[i]++
			}
		}
		run(x, n)
	}
}

// N returns the sample size.
func (c Counts) N() int {
	if len(c.Ends) == 0 {
		return 0
	}
	return c.Ends[len(c.Ends)-1]
}

// start returns the rank of the first copy of Values[j].
func (c Counts) start(j int) int {
	if j == 0 {
		return 0
	}
	return c.Ends[j-1]
}

// count returns the number of copies of Values[j].
func (c Counts) count(j int) int { return c.Ends[j] - c.start(j) }

// at returns the order statistic of rank i, the sorted sample's i-th value.
func (c Counts) at(i int) float64 {
	return c.Values[sort.SearchInts(c.Ends, i+1)]
}

// quantile is Percentile on the counted sample, which must not be empty.
func (c Counts) quantile(p float64) float64 {
	n := c.N()
	if p <= 0 {
		return c.Values[0]
	}
	if p >= 1 {
		return c.Values[len(c.Values)-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return c.at(lo)
	}
	return c.at(lo)*(1-frac) + c.at(lo+1)*frac
}

// At returns F_n(x) = fraction of sample <= x.
func (c Counts) At(x float64) float64 {
	if len(c.Values) == 0 {
		return math.NaN()
	}
	// SearchFloat64s finds the first run >= x; advance over equals.
	j := sort.SearchFloat64s(c.Values, x)
	for j < len(c.Values) && c.Values[j] == x {
		j++
	}
	return float64(c.start(j)) / float64(c.N())
}

// Points returns up to max (x, F_n(x)) pairs spread evenly through the
// sorted sample, suitable as regression data. Each point uses the midpoint
// plotting position (i+0.5)/n, which avoids F=0 and F=1 exactly.
func (c Counts) Points(max int) (xs, ys []float64) {
	n := c.N()
	if n == 0 {
		return nil, nil
	}
	if max <= 0 || max > n {
		max = n
	}
	xs = make([]float64, 0, max)
	ys = make([]float64, 0, max)
	j := 0 // the run holding rank i; i only grows
	for k := 0; k < max; k++ {
		i := k * n / max
		for c.Ends[j] <= i {
			j++
		}
		xs = append(xs, c.Values[j])
		ys = append(ys, (float64(i)+0.5)/float64(n))
	}
	return xs, ys
}
