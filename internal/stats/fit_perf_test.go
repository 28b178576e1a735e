package stats

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fitsDigest is the SHA-256 of the fits' JSON form, which carries every
// float in its shortest exact representation.
func fitsDigest(t *testing.T, fits []CandidateFit) [sha256.Size]byte {
	t.Helper()
	b, err := json.Marshal(fits)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestFitInterarrivalConcurrentMatchesSequential fits eight distinct
// samples from eight goroutines at once, each fit itself fanning out over
// the families, and requires the digests of the sequential fits.
func TestFitInterarrivalConcurrentMatchesSequential(t *testing.T) {
	samples := concurrentSamples()
	want := make([][sha256.Size]byte, len(samples))
	for i, s := range samples {
		fits, err := FitInterarrival(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fitsDigest(t, fits)
	}
	got := make([][]CandidateFit, len(samples))
	errs := make([]error, len(samples))
	var wg sync.WaitGroup
	for i := range samples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = FitInterarrival(samples[i])
		}()
	}
	wg.Wait()
	for i := range samples {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if fitsDigest(t, got[i]) != want[i] {
			t.Errorf("sample %d: concurrent fit differs from the sequential fit", i)
		}
	}
}

// TestFitDUDAllocsIndependentOfIters requires FitDUD's allocations per
// call to be a small constant: the workspace is allocated once, before the
// iteration, whether the fit stops after one iteration or runs on. A fit
// on a warm workspace, as the fitting pool's workers run them, allocates
// only the Theta it returns.
func TestFitDUDAllocsIndependentOfIters(t *testing.T) {
	xs, ys := NewCounts(sampleFrom(Weibull{Shape: 2.2, Scale: 5}, 2000, 31)).Points(maxRegressionPoints)
	m := Model{
		Name:       "weibull",
		F:          func(th []float64, x float64) float64 { return Weibull{Shape: th[0], Scale: th[1]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog, TransformLog},
	}
	theta0 := []float64{0.5, 40}
	var w workspace
	allocs := func(opt FitOptions) (fresh, warm float64, iters int) {
		res, err := w.fitDUD(m, xs, ys, theta0, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh = testing.AllocsPerRun(5, func() { _, _ = FitDUD(m, xs, ys, theta0, opt) })
		warm = testing.AllocsPerRun(5, func() { _, _ = w.fitDUD(m, xs, ys, theta0, opt) })
		return fresh, warm, res.Iters
	}
	short, shortWarm, shortIters := allocs(FitOptions{MaxIter: 1})
	long, longWarm, longIters := allocs(FitOptions{})
	if longIters < 20*shortIters {
		t.Fatalf("fit ran %d iterations, want many more than %d", longIters, shortIters)
	}
	const maxAllocs = 32
	if short != long || long > maxAllocs {
		t.Fatalf("allocs per call: %v at %d iterations, %v at %d; want equal and at most %d",
			short, shortIters, long, longIters, maxAllocs)
	}
	if shortWarm > 1 || longWarm > 1 {
		t.Fatalf("allocs per fit on a warm workspace: %v at %d iterations, %v at %d; want at most 1, the returned Theta",
			shortWarm, shortIters, longWarm, longIters)
	}
}

// benchmarkSample is the sample both benchmarks fit: bursty traffic, as
// the message-passing sources produce, large enough that the regression
// sees all maxRegressionPoints ECDF points.
func benchmarkSample() []float64 {
	return sampleFrom(HyperExp2{P: 0.7, Rate1: 3, Rate2: 0.3}, 5000, 41)
}

// BenchmarkFitDUD fits each candidate family from its moment or MLE seed
// to 256 ECDF points and reports the DUD iterations and the model calls
// each fit takes. Both are counts, so they compare exactly across hosts.
func BenchmarkFitDUD(b *testing.B) {
	sample := benchmarkSample()
	counts := NewCounts(sample)
	xs, ys := counts.Points(maxRegressionPoints)
	raw := takeRawSums(sample)
	for _, c := range candidateModels(raw, weibullInit(counts, raw.sum.Mean)) {
		b.Run(c.model.Name, func(b *testing.B) {
			var calls int
			m := c.model
			m.F = func(theta []float64, x float64) float64 {
				calls++
				return c.model.F(theta, x)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := FitDUD(m, xs, ys, c.init, FitOptions{})
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iters
			}
			b.ReportMetric(float64(iters), "iters/op")
			b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
		})
	}
}

// quantize rounds each gap up to a whole multiple of unit, as simulated
// gaps are whole nanoseconds, so the sample is full of ties.
func quantize(sample []float64, unit float64) []float64 {
	for i, x := range sample {
		sample[i] = unit * math.Ceil(x/unit)
	}
	return sample
}

// BenchmarkFitInterarrival runs the whole per-source procedure: Counts,
// every family from three starts, and the KS and χ² scores. The samples
// are the continuous benchmarkSample, which has no ties; a quantized one
// with a handful of distinct gaps, where DUD's regression points are
// mostly ties; and a pooled one of 10^5 gaps with about 1% distinct, where
// KS and χ² dominate.
func BenchmarkFitInterarrival(b *testing.B) {
	samples := []struct {
		name   string
		sample []float64
	}{
		{"continuous", benchmarkSample()},
		{"quantized", quantize(sampleFrom(HyperExp2{P: 0.7, Rate1: 3, Rate2: 0.3}, 5000, 42), 4)},
		{"pooled", quantize(sampleFrom(HyperExp2{P: 0.7, Rate1: 0.03, Rate2: 0.003}, 100000, 43), 2)},
	}
	for _, s := range samples {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitInterarrival(s.sample); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(distinctValues(s.sample))), "distinct")
		})
	}
}

// TestParallelForRunsEveryIndexAndForwardsPanics requires every index to
// run exactly once, on a worker index in range that no call running at
// the same time holds, and a worker's panic to reach the caller's
// goroutine. Fits reuse their worker's workspace on that guarantee.
func TestParallelForRunsEveryIndexAndForwardsPanics(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 3, 8, 2 * n} {
		var calls [n]atomic.Int32
		held := make([]atomic.Bool, min(workers, n))
		parallelFor(workers, n, func(w, i int) {
			if w < 0 || w >= len(held) {
				t.Errorf("%d workers: index %d ran on worker %d", workers, i, w)
				return
			}
			if held[w].Swap(true) {
				t.Errorf("%d workers: index %d ran on worker %d while another call held it", workers, i, w)
			}
			calls[i].Add(1)
			runtime.Gosched()
			held[w].Store(false)
		})
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("%d workers: index %d ran %d times", workers, i, c)
			}
		}
	}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", r)
		}
	}()
	parallelFor(4, n, func(_, i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("parallelFor returned after a worker panicked")
}

// TestSummarizeSourcesBytesPerSample bounds what SummarizeSources
// allocates per fitted sample, on 16 quantized sources and their pooled
// sample, at GOMAXPROCS 2. Each sample runs 27 DUD fits: with a fresh DUD
// workspace per fit a sample cost about 417 KB, and with one workspace per
// pool worker it costs about 28 KB. TestAnalyzeBytesPerGap takes the slope
// over sample length, which cancels this fixed cost.
func TestSummarizeSourcesBytesPerSample(t *testing.T) {
	const maxPerSample = 64 << 10
	gaps := quantize(sampleFrom(HyperExp2{P: 0.7, Rate1: 0.03, Rate2: 0.003}, 32000, 44), 1)
	off := splitOffsets(len(gaps), 16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := SummarizeSources(gaps, off)
	runtime.ReadMemStats(&after)
	for s, r := range res {
		if r.Err != nil || len(r.Fits) < 2 {
			t.Fatalf("sample %d: %d fits, error %v; want every family fitted", s, len(r.Fits), r.Err)
		}
	}
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(res))
	if perSample > maxPerSample {
		t.Fatalf("SummarizeSources allocates %.0f bytes per fitted sample, want at most %d", perSample, maxPerSample)
	}
	t.Logf("%.0f bytes per fitted sample", perSample)
}
