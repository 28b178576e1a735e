package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if !almostEqual(s.Variance, 2.5, 1e-12) {
		t.Fatalf("variance = %v, want 2.5", s.Variance)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeConstant(t *testing.T) {
	s := Summarize([]float64{7, 7, 7, 7})
	if s.StdDev != 0 || s.CV != 0 {
		t.Fatalf("constant sample summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if v := Percentile(xs, 0); v != 10 {
		t.Fatalf("p0 = %v", v)
	}
	if v := Percentile(xs, 1); v != 40 {
		t.Fatalf("p100 = %v", v)
	}
	if v := Percentile(xs, 0.5); !almostEqual(v, 25, 1e-12) {
		t.Fatalf("median = %v, want 25", v)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	prop := func(raw []float64, probe []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				return true
			}
		}
		e := NewECDF(raw)
		prev := -1.0
		xs := append([]float64(nil), probe...)
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				return true
			}
		}
		// Check monotonicity over sorted probes.
		for _, x := range sortedCopy(xs) {
			f := e.At(x)
			if f < prev-1e-12 || f < 0 || f > 1 {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestECDFPoints(t *testing.T) {
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i)
	}
	xs, ys := NewECDF(sample).Points(10)
	if len(xs) != 10 || len(ys) != 10 {
		t.Fatalf("got %d points", len(xs))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] || xs[i] < xs[i-1] {
			t.Fatalf("points not increasing: %v %v", xs, ys)
		}
	}
	if ys[0] <= 0 || ys[len(ys)-1] >= 1 {
		t.Fatalf("plotting positions out of (0,1): %v", ys)
	}
}
