package pipeline

import (
	"context"
	"testing"

	"commchar/internal/apps"
)

// BenchmarkColdSweepTopology measures the cold (cache-disabled) cost of one
// full pipeline run — generate, simulate, characterize — per interconnect
// fabric, on the same IS workload at 16 processors. The empty topology is
// the paper's default 2-D mesh and serves as the baseline; the deltas are
// the price of richer fabrics (more nodes for the fat tree's switch
// stages, wider radix for the dragonfly). Run it with
//
//	go test -run '^$' -bench BenchmarkColdSweepTopology -benchmem ./internal/pipeline/
func BenchmarkColdSweepTopology(b *testing.B) {
	for _, topo := range []string{"", "torus", "torus3d", "hypercube", "fattree", "dragonfly"} {
		name := topo
		if name == "" {
			name = "mesh"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := New(Options{Parallel: 1})
				if err != nil {
					b.Fatal(err)
				}
				arts, err := eng.RunAll(context.Background(), RunSpec{App: "IS", Procs: 16, Scale: apps.ScaleSmall, Topology: topo})
				if err != nil {
					b.Fatal(err)
				}
				if len(arts) != 1 || arts[0].C == nil || arts[0].C.Messages == 0 {
					b.Fatalf("topology %q: empty artifact", topo)
				}
			}
		})
	}
}
