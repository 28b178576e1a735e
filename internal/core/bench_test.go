package core

import (
	"testing"

	"commchar/internal/mesh"
)

// BenchmarkAnalyze characterizes a fixed log: 8 sources of 300
// exponential gaps each, with uniform destinations and bimodal lengths.
// Almost all of its time is the per-source and aggregate fits.
func BenchmarkAnalyze(b *testing.B) {
	log := syntheticLog(8, 300, 10000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze("synthetic", StrategyDynamic, log, 8, 1<<40, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// skewedLog is a log shaped like a cold Maxflow run's: 16 sources of
// perSource deliveries each, injected at whole multiples of the 25 ns
// network cycle, so the samples are full of ties.
func skewedLog(perSource int) []mesh.Delivery {
	log := syntheticLog(16, perSource, 2000, 1)
	for i := range log {
		log[i].Inject -= log[i].Inject % 25
		log[i].End = log[i].Inject + 500
	}
	return log
}

// BenchmarkAnalyzeSkewed characterizes skewedLog(20001): 16 sources of
// 20,000 gaps each, so the pooled sample is half of all the data fitted
// and its fit the largest by far.
func BenchmarkAnalyzeSkewed(b *testing.B) {
	log := skewedLog(20001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze("skewed", StrategyDynamic, log, 16, 1<<40, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
