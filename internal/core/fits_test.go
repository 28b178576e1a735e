package core_test

import (
	"cmp"
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/pipeline"
	"commchar/internal/sim"
	"commchar/internal/stats"
)

// sparseAndPointMass returns syntheticLog's 8 sources plus source 8 with
// 5 gaps, too few to fit, and source 9 with 40 equal gaps, a point mass.
func sparseAndPointMass() []mesh.Delivery {
	log := core.SyntheticLog(8, 300, 10000, 1)
	add := func(src int32, n int, gap sim.Time) {
		for i := range n {
			at := sim.Time(i+1) * gap
			log = append(log, mesh.Delivery{ID: int64(len(log) + 1), Src: src, Dst: 0, Bytes: 8,
				Inject: at, End: at + 500, Hops: 3})
		}
	}
	add(8, 6, 3000)
	add(9, 41, 2000)
	return log
}

// TestAnalyzeMatchesSequentialFits requires Analyze, which fits every
// source's sample and the pooled one on one worker pool, to give the
// temporal results that fitting each sample alone with stats.SummarizeFit
// gives, bit for bit, at GOMAXPROCS 1, 2 and 4. The logs are synthetic
// ones with a source too sparse to fit and a point-mass source, and a
// simulated IS run at 16 processors.
func TestAnalyzeMatchesSequentialFits(t *testing.T) {
	eng, err := pipeline.New(pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	art, err := eng.RunContext(context.Background(), pipeline.RunSpec{App: "IS", Procs: 16, Scale: apps.ScaleSmall})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		log   []mesh.Delivery
		procs int
	}{
		{"synthetic", sparseAndPointMass(), 10},
		{"IS-16p", art.C.Log, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The samples fitted one at a time: each source's gaps in
			// (injection time, ID) order, then all of them pooled source
			// by source.
			sorted := slices.Clone(tc.log)
			slices.SortStableFunc(sorted, func(a, b mesh.Delivery) int {
				return cmp.Or(cmp.Compare(a.Inject, b.Inject), cmp.Compare(a.ID, b.ID))
			})
			bySource := make([][]float64, tc.procs)
			last := make([]sim.Time, tc.procs)
			seen := make([]bool, tc.procs)
			for _, d := range sorted {
				if seen[d.Src] {
					bySource[d.Src] = append(bySource[d.Src], float64(d.Inject-last[d.Src]))
				}
				last[d.Src], seen[d.Src] = d.Inject, true
			}
			var pooled []float64
			want := make([]core.SourceTemporal, tc.procs)
			for src, gaps := range bySource {
				pooled = append(pooled, gaps...)
				sum, fits, _ := stats.SummarizeFit(gaps)
				want[src] = core.SourceTemporal{Src: src, Samples: len(gaps), Summary: sum, Fits: fits}
			}
			sum, fits, err := stats.SummarizeFit(pooled)
			if err != nil {
				t.Fatal(err)
			}
			wantAgg := core.SourceTemporal{Src: -1, Samples: len(pooled), Summary: sum, Fits: fits}
			if tc.name == "synthetic" && (want[8].Fits != nil || want[9].Fits[0].Dist.Name() != (stats.Deterministic{}).Name()) {
				t.Fatal("source 8 must be too sparse to fit and source 9 a point mass")
			}

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				c, err := core.Analyze(tc.name, core.StrategyDynamic, tc.log, tc.procs, 1<<40, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				for src := range want {
					if !reflect.DeepEqual(c.PerSource[src], want[src]) {
						t.Fatalf("GOMAXPROCS %d: source %d = %+v, want %+v", procs, src, c.PerSource[src], want[src])
					}
				}
				if !reflect.DeepEqual(c.Aggregate, wantAgg) {
					t.Fatalf("GOMAXPROCS %d: aggregate = %+v, want %+v", procs, c.Aggregate, wantAgg)
				}
			}
		})
	}
}
