package stats

import (
	"math"
	"slices"
	"sort"
	"testing"

	"commchar/internal/sim"
)

func sampleFrom(d Distribution, n int, seed uint64) []float64 {
	st := sim.NewStream(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(st)
	}
	return xs
}

// fitRecovery runs the full pipeline on synthetic data and requires the true
// family to win (or tie within tolerance of whatever wins).
func fitRecovery(t *testing.T, trueDist Distribution, n int, seed uint64) CandidateFit {
	t.Helper()
	fits, err := FitInterarrival(sampleFrom(trueDist, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	best := fits[0]
	if best.R2 < 0.98 {
		t.Fatalf("best fit for %s is %s with R²=%v", trueDist, best.Dist, best.R2)
	}
	var trueFit *CandidateFit
	for i := range fits {
		if fits[i].Dist.Name() == trueDist.Name() {
			trueFit = &fits[i]
			break
		}
	}
	if trueFit == nil {
		t.Fatalf("true family %s missing from candidates", trueDist.Name())
	}
	if trueFit.R2 < best.R2-0.01 {
		t.Fatalf("true family %s scored R²=%v, winner %s scored %v",
			trueDist.Name(), trueFit.R2, best.Dist.Name(), best.R2)
	}
	return best
}

func TestFitRecoversExponential(t *testing.T) {
	best := fitRecovery(t, Exponential{Rate: 0.02}, 20000, 1)
	if best.KS > 0.05 {
		t.Fatalf("KS = %v", best.KS)
	}
}

func TestFitRecoversHyperexponential(t *testing.T) {
	fitRecovery(t, HyperExp2{P: 0.8, Rate1: 0.05, Rate2: 0.002}, 20000, 2)
}

func TestFitRecoversErlang(t *testing.T) {
	fitRecovery(t, Erlang{K: 4, Rate: 0.08}, 20000, 3)
}

func TestFitRecoversWeibull(t *testing.T) {
	fitRecovery(t, Weibull{Shape: 2.5, Scale: 120}, 20000, 4)
}

func TestFitRecoversUniform(t *testing.T) {
	fitRecovery(t, Uniform{Lo: 10, Hi: 30}, 20000, 5)
}

func TestFitDeterministicSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 42
	}
	fits, err := FitInterarrival(xs)
	if err != nil {
		t.Fatal(err)
	}
	if fits[0].Dist.Name() != "deterministic" {
		t.Fatalf("constant sample fitted as %s", fits[0].Dist.Name())
	}
	if fits[0].Dist.Mean() != 42 {
		t.Fatalf("deterministic mean = %v", fits[0].Dist.Mean())
	}
}

func TestFitRejectsTinySamples(t *testing.T) {
	if _, err := FitInterarrival([]float64{1, 2, 3}); err == nil {
		t.Fatal("tiny sample accepted")
	}
}

func TestFitPreservesMean(t *testing.T) {
	trueDist := Exponential{Rate: 0.01}
	xs := sampleFrom(trueDist, 30000, 9)
	fits, err := FitInterarrival(xs)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(xs)
	got := fits[0].Dist.Mean()
	if got < 0.9*s.Mean || got > 1.1*s.Mean {
		t.Fatalf("fitted mean %v, sample mean %v", got, s.Mean)
	}
}

func TestFitsSortedByR2(t *testing.T) {
	fits, err := FitInterarrival(sampleFrom(Weibull{Shape: 3, Scale: 50}, 10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fits); i++ {
		if fits[i].R2 > fits[i-1].R2 {
			t.Fatalf("fits not sorted: %v then %v", fits[i-1].R2, fits[i].R2)
		}
	}
}

func TestErlangStages(t *testing.T) {
	if k := erlangStages(1); k != 1 {
		t.Fatalf("CV=1 -> k=%d", k)
	}
	if k := erlangStages(0.5); k != 4 {
		t.Fatalf("CV=0.5 -> k=%d", k)
	}
	if k := erlangStages(0.01); k != 50 {
		t.Fatalf("tiny CV -> k=%d (want clamp 50)", k)
	}
}

func TestHyperInitMatchesMoments(t *testing.T) {
	mean, cv := 10.0, 2.0
	p, l1, l2 := hyperInit(mean, cv)
	d := HyperExp2{P: p, Rate1: l1, Rate2: l2}
	if !almostEqual(d.Mean(), mean, 1e-9) {
		t.Fatalf("moment-matched mean = %v, want %v", d.Mean(), mean)
	}
	if p <= 0 || p >= 1 || l1 <= 0 || l2 <= 0 {
		t.Fatalf("invalid H2 parameters: %v %v %v", p, l1, l2)
	}
}

// TestSortFitsBreaksR2Ties pins the total order behind candidate
// ranking: fits with equal R² must fall back to KS (smaller first) and
// then family name, so the winning family — and the serialized
// characterization built from it — cannot depend on candidate
// enumeration order. The repolint determinism analyzer found the
// previous comparator ranking by R² alone.
func TestSortFitsBreaksR2Ties(t *testing.T) {
	mk := func(d Distribution, r2, ks float64) CandidateFit {
		return CandidateFit{Dist: d, R2: r2, KS: ks}
	}
	perms := [][]CandidateFit{
		{
			mk(Uniform{0, 1}, 0.9, 0.2),
			mk(Exponential{1}, 0.9, 0.1),
			mk(Deterministic{1}, 0.95, 0.3),
			mk(Weibull{1, 1}, 0.9, 0.1),
		},
		{
			mk(Weibull{1, 1}, 0.9, 0.1),
			mk(Deterministic{1}, 0.95, 0.3),
			mk(Uniform{0, 1}, 0.9, 0.2),
			mk(Exponential{1}, 0.9, 0.1),
		},
	}
	// Best R² first; among the 0.9 ties, KS 0.1 beats 0.2; among the
	// (0.9, 0.1) ties, "exponential" sorts before "weibull".
	want := []string{"deterministic", "exponential", "weibull", "uniform"}
	for p, fits := range perms {
		sortFits(fits)
		for i, f := range fits {
			if f.Dist.Name() != want[i] {
				t.Fatalf("perm %d: position %d is %s, want %s", p, i, f.Dist.Name(), want[i])
			}
		}
	}
}

// TestWeibullInitFromSortedSample: seeding Weibull from the positive runs
// of the sample's Counts gives, bit for bit, the seed of the former
// routes: the positive suffix of a sorted copy, and the positives filtered
// and sorted again.
func TestWeibullInitFromSortedSample(t *testing.T) {
	former := func(samples []float64, mean float64) []float64 {
		var pos []float64
		for _, x := range samples {
			if x > 0 {
				pos = append(pos, x)
			}
		}
		sort.Float64s(pos)
		return referenceWeibullInit(pos, mean)
	}
	st := sim.NewStream(9)
	for n := 8; n < 400; n += 37 {
		samples := make([]float64, n)
		for i := range samples {
			switch st.IntN(10) {
			case 0:
				samples[i] = 0
			case 1:
				samples[i] = -st.Float64()
			case 2:
				samples[i] = math.NaN()
			default:
				samples[i] = math.Ceil(st.Float64()*1e4) / 100
			}
		}
		sorted := slices.Clone(samples)
		sort.Float64s(sorted)
		got := weibullInit(NewCounts(samples), 3)
		for _, want := range [][]float64{referenceWeibullInit(sorted, 3), former(samples, 3)} {
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d: seed %v, want %v", n, got, want)
				}
			}
		}
	}
}

// TestSummarizeFitMatchesSummarize requires SummarizeFit's one sort to
// give Summarize's Summary bit for bit, FitInterarrival's fits, and the
// same error texts, on the reference samples and on the samples each
// early return serves: too few, a mean that is not finite (a NaN or an
// infinity in the sample, or finite values whose sum overflows), a point
// mass and a non-positive mean.
func TestSummarizeFitMatchesSummarize(t *testing.T) {
	samples := referenceSamples()
	samples["n=0"] = nil
	samples["n=7"] = []float64{3, 1, 4, 1, 5, 9, 2}
	samples["point mass"] = []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	samples["non-positive mean"] = []float64{-3, 1, -4, 1, -5, 9, -2, 0, -6}
	samples["NaN"] = []float64{1, 2, 3, 4, 5, 6, 7, math.NaN(), 9, 10}
	samples["+Inf"] = []float64{1, 2, 3, 4, 5, 6, 7, math.Inf(1), 9, 10}
	samples["-Inf"] = []float64{1, 2, 3, 4, 5, 6, 7, math.Inf(-1), 9, 10}
	samples["sum overflows"] = []float64{1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308}
	const notFinite = "; samples must be finite and sum within float64 range"
	wantErr := map[string]string{
		"n=0":               "stats: too few samples to characterize",
		"n=7":               "stats: too few samples to characterize",
		"non-positive mean": "stats: non-positive mean; inter-arrival samples must be positive",
		"NaN":               "stats: sample mean is NaN" + notFinite,
		"+Inf":              "stats: sample mean is +Inf" + notFinite,
		"-Inf":              "stats: sample mean is -Inf" + notFinite,
		"sum overflows":     "stats: sample mean is +Inf" + notFinite,
	}
	bits := func(s Summary) [8]uint64 {
		return [8]uint64{uint64(s.N), math.Float64bits(s.Mean), math.Float64bits(s.Variance),
			math.Float64bits(s.StdDev), math.Float64bits(s.CV), math.Float64bits(s.Min),
			math.Float64bits(s.Max), math.Float64bits(s.Median)}
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for name, xs := range samples {
		t.Run(name, func(t *testing.T) {
			sum, fits, err := SummarizeFit(xs)
			if got, want := bits(sum), bits(Summarize(xs)); got != want {
				t.Errorf("Summary = %+v, Summarize gives %+v", sum, Summarize(xs))
			}
			if errText(err) != wantErr[name] {
				t.Errorf("error %q, want %q", errText(err), wantErr[name])
			}
			refFits, refErr := FitInterarrival(xs)
			if errText(refErr) != errText(err) {
				t.Errorf("error %q, FitInterarrival's %q", errText(err), errText(refErr))
			}
			if fitsDigest(t, fits) != fitsDigest(t, refFits) {
				t.Error("fits differ from FitInterarrival's")
			}
			if name == "point mass" && (len(fits) != 1 || fits[0].Dist != (Deterministic{Value: 7})) {
				t.Errorf("point mass fits %v, want one Deterministic{7}", fits)
			}
		})
	}
}

// TestLognormalInitMatchesMoments requires the two-pass lognormal seed to
// equal, bit for bit, moments over the slice of the positive samples'
// logs that it does not allocate.
func TestLognormalInitMatchesMoments(t *testing.T) {
	samples := referenceSamples()
	samples["seven positive"] = []float64{-1, 0, 2, 3, 5, 7, 11, 13, 17}
	for name, xs := range samples {
		var logs []float64
		for _, x := range xs {
			if x > 0 {
				logs = append(logs, math.Log(x))
			}
		}
		mu, sigma, ok := lognormalInit(xs)
		want := moments(logs)
		wantOK := len(logs) >= 8 && want.StdDev > 0
		if ok != wantOK || ok && (math.Float64bits(mu) != math.Float64bits(want.Mean) ||
			math.Float64bits(sigma) != math.Float64bits(want.StdDev)) {
			t.Errorf("%s: lognormalInit = %v, %v, %v; moments of the logs give %v, %v, %v",
				name, mu, sigma, ok, want.Mean, want.StdDev, wantOK)
		}
	}
}
