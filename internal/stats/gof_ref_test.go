package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"commchar/internal/sim"
)

// referenceKSSorted is KS on the sorted sample as it stood before runs of
// equal values shared one CDF evaluation: the CDF is called at every
// sample point. It is kept verbatim as the oracle that Counts.ks must
// match bit for bit.
func referenceKSSorted(xs []float64, d Distribution) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	var ks float64
	for i, x := range xs {
		f := d.CDF(x)
		lo := math.Abs(f - float64(i)/float64(n))
		hi := math.Abs(float64(i+1)/float64(n) - f)
		if lo > ks {
			ks = lo
		}
		if hi > ks {
			ks = hi
		}
	}
	return ks
}

// referenceChiSquareSorted is χ² on the sorted sample as it stood before
// runs of equal values shared one CDF evaluation: the CDF is called at
// every point a bin tests, twice at a bin boundary and once per point of
// the last bin. It is kept verbatim as the oracle that Counts.chiSquare
// must match bit for bit.
func referenceChiSquareSorted(xs []float64, d Distribution, bins, estimatedParams int) ChiSquareResult {
	n := len(xs)
	if n == 0 || bins < 2 {
		return ChiSquareResult{Statistic: math.NaN(), PValue: math.NaN()}
	}

	expected := float64(n) / float64(bins)
	var stat float64
	idx := 0
	for b := 0; b < bins; b++ {
		// Bin b covers CDF mass ((b)/bins, (b+1)/bins]; count sample
		// points whose model CDF falls there.
		upper := float64(b+1) / float64(bins)
		count := 0
		for idx < n && (d.CDF(xs[idx]) <= upper || b == bins-1) {
			count++
			idx++
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

// distinctValues returns the sample's distinct values, sorted.
func distinctValues(sample []float64) []float64 {
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	var out []float64
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// requireSameScores counts the sample and scores it against every
// candidate family built from its starting values, and against a few fixed
// distributions, with the scoring functions and their per-point references
// on the sorted sample: the R² vector of fillCDF over the sample's ECDF
// points, KS, and χ² at several bin counts must agree bit for bit.
func requireSameScores(t *testing.T, samples []float64) {
	t.Helper()
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	counts := NewCounts(samples)
	xs, _ := counts.Points(maxRegressionPoints)
	dists := []Distribution{
		Exponential{Rate: 1},
		Uniform{Lo: 1, Hi: 3},
		Normal{Mu: 2, Sigma: 0.5},
		// A step at the median whose CDF is NaN there, as 0/0.
		Normal{Mu: sorted[len(sorted)/2], Sigma: 0},
		Uniform{Lo: math.Inf(-1), Hi: math.Inf(1)}, // NaN everywhere finite
	}
	raw := takeRawSums(samples)
	for _, c := range candidateModels(raw, weibullInit(counts, raw.sum.Mean)) {
		dists = append(dists, c.build(c.init))
	}
	yhat := make([]float64, len(xs))
	for _, d := range dists {
		what := fmt.Sprintf("%s%v", d.Name(), d.Params())
		ok := fillCDF(yhat, xs, d)
		wantOK := true
		for i, x := range xs {
			f := d.CDF(x)
			if math.IsNaN(f) {
				wantOK = false
				break
			}
			if !sameBits(yhat[i], f) {
				t.Fatalf("%s: fillCDF[%d] = %v, CDF = %v", what, i, yhat[i], f)
			}
		}
		if ok != wantOK {
			t.Fatalf("%s: fillCDF reports %v, want %v", what, ok, wantOK)
		}
		if got, want := counts.ks(d), referenceKSSorted(sorted, d); !sameBits(got, want) {
			t.Fatalf("%s: KS %v, reference %v", what, got, want)
		}
		for _, bins := range []int{2, 7, chiSquareBins, 64} {
			got := counts.chiSquare(d, bins, 2)
			want := referenceChiSquareSorted(sorted, d, bins, 2)
			if !sameBits(got.Statistic, want.Statistic) || got.DF != want.DF || !sameBits(got.PValue, want.PValue) {
				t.Fatalf("%s, %d bins: χ² %+v, reference %+v", what, bins, got, want)
			}
		}
	}
}

// scoringSamples are the tie-heavy inputs of TestScoringMatchesReference,
// plus one sample whose values are all distinct.
func scoringSamples() map[string][]float64 {
	st := sim.NewStream(131)
	// The gaps of an IS source: a few whole-nanosecond values, one of
	// them far more common than the rest.
	isGaps := []float64{120, 120, 120, 120, 120, 120, 240, 360, 480, 5000}
	isShaped := make([]float64, 334)
	for i := range isShaped {
		isShaped[i] = isGaps[st.IntN(len(isGaps))]
	}
	zeros := make([]float64, 400)
	for i := range zeros {
		switch st.IntN(4) {
		case 0:
			zeros[i] = math.Copysign(0, -1)
		case 1:
			zeros[i] = 0
		default:
			zeros[i] = float64(1 + st.IntN(50))
		}
	}
	return map[string][]float64{
		"ties":      referenceSamples()["ties"],
		"IS-shaped": isShaped,
		"zeros":     zeros,
		"distinct":  sampleFrom(HyperExp2{P: 0.7, Rate1: 3, Rate2: 0.3}, 2000, 132),
	}
}

// TestScoringMatchesReference requires R², KS and χ² to match their
// per-point references bit for bit on tie-heavy samples.
func TestScoringMatchesReference(t *testing.T) {
	samples := scoringSamples()
	if d := len(distinctValues(samples["IS-shaped"])); d != 5 {
		t.Fatalf("IS-shaped sample has %d distinct values, want 5", d)
	}
	if d := len(distinctValues(samples["distinct"])); d != len(samples["distinct"]) {
		t.Fatalf("distinct sample has %d distinct values among %d", d, len(samples["distinct"]))
	}
	for name, s := range samples {
		t.Run(name, func(t *testing.T) {
			requireSameScores(t, s)
		})
	}
}
