// Benchmark harness: one benchmark per table and figure of the reproduced
// evaluation (see the experiment index in DESIGN.md). Each benchmark
// regenerates its artifact at full scale and prints it once, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's tables and figures end to end. Characterizations
// are cached in a shared runner, so artifacts that draw on the same
// application run it only once.
package commchar_test

import (
	"context"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/experiments"
	"commchar/internal/pipeline"
)

const benchProcs = 16

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func benchRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		eng, err := pipeline.New(pipeline.Options{})
		if err != nil {
			panic(err) // no cache directory: New cannot fail
		}
		runner = experiments.NewRunner(context.Background(), apps.ScaleFull, eng)
	})
	return runner
}

// artifact runs the generator once with output to stdout, then re-runs it
// (cached) for the remaining iterations.
func artifact(b *testing.B, banner string, fn func(w io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			w = os.Stdout
			os.Stdout.WriteString("\n######## " + banner + " ########\n")
		}
		if err := fn(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1ApplicationSuite(b *testing.B) {
	r := benchRunner()
	artifact(b, "Table 1", func(w io.Writer) error { return r.Table1(w, benchProcs) })
}

func BenchmarkTable2InterarrivalSharedMemory(b *testing.B) {
	r := benchRunner()
	artifact(b, "Table 2", func(w io.Writer) error { return r.Table2(w, benchProcs) })
}

func BenchmarkTable3InterarrivalMessagePassing(b *testing.B) {
	r := benchRunner()
	artifact(b, "Table 3", func(w io.Writer) error { return r.Table3(w, benchProcs) })
}

func BenchmarkTable4MessageVolume(b *testing.B) {
	r := benchRunner()
	artifact(b, "Table 4", func(w io.Writer) error { return r.Table4(w, benchProcs) })
}

func BenchmarkTable5Locality(b *testing.B) {
	r := benchRunner()
	artifact(b, "Table 5", func(w io.Writer) error { return r.Table5(w, benchProcs) })
}

func BenchmarkTable6PerPhase(b *testing.B) {
	r := benchRunner()
	artifact(b, "Table 6", func(w io.Writer) error { return r.Table6(w, benchProcs) })
}

func BenchmarkTable7ExecutionProfiles(b *testing.B) {
	r := benchRunner()
	artifact(b, "Table 7", func(w io.Writer) error { return r.Table7(w, benchProcs) })
}

func BenchmarkFigureInterarrivalSharedMemory(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: inter-arrival CDFs (shared memory)", func(w io.Writer) error {
		return r.FigureInterarrivalSM(w, benchProcs)
	})
}

func BenchmarkFigureSpatialSharedMemory(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: spatial distributions (shared memory, 8 procs)", func(w io.Writer) error {
		return r.FigureSpatialSM(w)
	})
}

func BenchmarkFigureSpatialMessagePassing(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: spatial distributions (message passing, 8 procs)", func(w io.Writer) error {
		return r.FigureSpatialMP(w)
	})
}

func BenchmarkFigureVolumeMessagePassing(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: message volume distributions (message passing)", func(w io.Writer) error {
		return r.FigureVolumeMP(w)
	})
}

func BenchmarkFigureRateOverTime(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: generation rate over time", func(w io.Writer) error {
		return r.FigureRateOverTime(w, benchProcs)
	})
}

func BenchmarkFigureLatencyLoad(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: latency vs offered load", func(w io.Writer) error {
		return r.FigureLatencyLoad(w, benchProcs)
	})
}

func BenchmarkFigureAnalyticModel(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: analytic model validation", func(w io.Writer) error {
		return r.FigureAnalyticModel(w, benchProcs)
	})
}

func BenchmarkFigureSyntheticValidation(b *testing.B) {
	r := benchRunner()
	artifact(b, "Figure: synthetic-traffic validation", func(w io.Writer) error {
		return r.FigureSyntheticValidation(w, benchProcs)
	})
}

func BenchmarkAblationContention(b *testing.B) {
	r := benchRunner()
	artifact(b, "Ablation: mesh contention", func(w io.Writer) error {
		return r.AblationContention(w, benchProcs)
	})
}

func BenchmarkAblationVirtualChannels(b *testing.B) {
	r := benchRunner()
	artifact(b, "Ablation: virtual channels", func(w io.Writer) error {
		return r.AblationVirtualChannels(w)
	})
}

func BenchmarkAblationCacheGeometry(b *testing.B) {
	r := benchRunner()
	artifact(b, "Ablation: cache geometry", func(w io.Writer) error {
		return r.AblationCacheGeometry(w, benchProcs)
	})
}

func BenchmarkAblationBarrier(b *testing.B) {
	r := benchRunner()
	artifact(b, "Ablation: barrier algorithm", func(w io.Writer) error {
		return r.AblationBarrier(w, benchProcs)
	})
}

func BenchmarkAblationTopology(b *testing.B) {
	r := benchRunner()
	artifact(b, "Ablation: topology", func(w io.Writer) error {
		return r.AblationTopology(w)
	})
}

func BenchmarkAblationProtocol(b *testing.B) {
	r := benchRunner()
	artifact(b, "Ablation: coherence protocol", func(w io.Writer) error {
		return r.AblationProtocol(w, benchProcs)
	})
}

func BenchmarkAblationRouting(b *testing.B) {
	r := benchRunner()
	artifact(b, "Ablation: routing algorithm", func(w io.Writer) error {
		return r.AblationRouting(w, benchProcs)
	})
}

// ---------------------------------------------------------------------------
// Pipeline benchmarks: the engine's worker pool and caches over the whole
// 7-application suite (small scale, 8 processors). Cold benchmarks build a
// fresh engine per iteration, so every run simulates; on a machine with >= 4
// cores the parallel cold sweep should finish at least ~2x faster than the
// sequential one (runs are independent and CPU-bound).

// pipelineSuite characterizes every suite application through the engine.
func pipelineSuite(b *testing.B, eng *pipeline.Engine) {
	b.Helper()
	names := []string{"1D-FFT", "IS", "Cholesky", "Nbody", "Maxflow", "3D-FFT", "MG"}
	specs := make([]pipeline.RunSpec, len(names))
	for i, n := range names {
		specs[i] = pipeline.RunSpec{App: n, Procs: 8, Scale: apps.ScaleSmall}
	}
	if _, err := eng.RunAll(context.Background(), specs...); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPipelineColdSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := pipeline.New(pipeline.Options{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		pipelineSuite(b, eng)
	}
}

func BenchmarkPipelineColdParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := pipeline.New(pipeline.Options{Parallel: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		pipelineSuite(b, eng)
	}
}

func BenchmarkPipelineWarmMemory(b *testing.B) {
	eng, err := pipeline.New(pipeline.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pipelineSuite(b, eng) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipelineSuite(b, eng)
	}
}

func BenchmarkPipelineWarmDisk(b *testing.B) {
	dir := b.TempDir()
	prime, err := pipeline.New(pipeline.Options{CacheDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	pipelineSuite(b, prime) // prime the on-disk cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration: every artifact loads from disk.
		eng, err := pipeline.New(pipeline.Options{CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		pipelineSuite(b, eng)
		if eng.Metrics().Runs.Load() != 0 {
			b.Fatalf("warm-disk iteration executed %d simulations", eng.Metrics().Runs.Load())
		}
	}
}
