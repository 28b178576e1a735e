package core

import "testing"

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
