package mp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

// worldWith builds a world with the given algorithm family.
func worldWith(ranks int, alg Algorithm) *World {
	cfg := DefaultConfig(ranks)
	cfg.Collectives = alg
	return NewWorld(cfg)
}

func TestBinomialBcastDeliversPayload(t *testing.T) {
	for ranks := 2; ranks <= 16; ranks++ {
		for _, root := range []int{0, ranks - 1, ranks / 2} {
			w := worldWith(ranks, AlgBinomial)
			got := make([]any, ranks)
			_, err := w.Run(func(r *Rank) {
				var data any
				if r.ID() == root {
					data = fmt.Sprintf("payload-from-%d", root)
				}
				got[r.ID()] = r.Bcast(root, 256, data)
			})
			if err != nil {
				t.Fatalf("ranks=%d root=%d: %v", ranks, root, err)
			}
			want := fmt.Sprintf("payload-from-%d", root)
			for id, g := range got {
				if g != want {
					t.Fatalf("ranks=%d root=%d: rank %d got %v", ranks, root, id, g)
				}
			}
		}
	}
}

func TestBinomialReduceSums(t *testing.T) {
	for ranks := 2; ranks <= 16; ranks++ {
		for _, root := range []int{0, ranks - 1} {
			w := worldWith(ranks, AlgBinomial)
			var at *int
			_, err := w.Run(func(r *Rank) {
				res := r.Reduce(root, 8, r.ID()+1, func(a, b any) any { return a.(int) + b.(int) })
				if r.ID() == root {
					v := res.(int)
					at = &v
				} else if res != nil {
					t.Errorf("non-root rank %d got %v", r.ID(), res)
				}
			})
			if err != nil {
				t.Fatalf("ranks=%d root=%d: %v", ranks, root, err)
			}
			want := ranks * (ranks + 1) / 2
			if at == nil || *at != want {
				t.Fatalf("ranks=%d root=%d: reduce = %v, want %d", ranks, root, at, want)
			}
		}
	}
}

func TestBinomialBcastUsesFewerSequentialSteps(t *testing.T) {
	// On 16 ranks the binomial tree finishes a root-0 broadcast in 4
	// sequential steps against the linear root's 15 serialized sends, so
	// its makespan must be strictly shorter.
	span := func(alg Algorithm) sim.Time {
		w := worldWith(16, alg)
		mk, err := w.Run(func(r *Rank) { r.Bcast(0, 4096, nil) })
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	lin, bin := span(AlgLinear), span(AlgBinomial)
	if bin >= lin {
		t.Fatalf("binomial bcast makespan %d >= linear %d", bin, lin)
	}
}

func TestCollectiveTagExhaustionPanics(t *testing.T) {
	// Regression: the per-rank collective counter must refuse to issue a
	// block outside the reserved window instead of silently aliasing.
	w := NewWorld(DefaultConfig(2))
	r := w.ranks[0]
	r.collective = CollectiveBlocks - 1
	if tag := r.nextCollectiveTag(); tag != CollectiveTagBase-(CollectiveBlocks-1)*CollectiveBlockSize {
		t.Fatalf("last in-window tag = %d", tag)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("tag space exhaustion did not panic")
		}
	}()
	r.nextCollectiveTag()
}

func TestDecodeTagRoundTrip(t *testing.T) {
	cases := []struct {
		off  int
		op   CollectiveOp
		alg  Algorithm
		phse int
	}{
		{offBarrierEnter, OpBarrier, AlgLinear, 0},
		{offBarrierRelease, OpBarrier, AlgLinear, 1},
		{offBcastLinear, OpBcast, AlgLinear, 0},
		{offBcastBinomial, OpBcast, AlgBinomial, 0},
		{offGatherLinear, OpGather, AlgLinear, 0},
		{offReduceLinear, OpReduce, AlgLinear, 0},
		{offReduceBinomial, OpReduce, AlgBinomial, 0},
		{offAlltoallPhased, OpAlltoall, AlgLinear, 0},
	}
	for _, block := range []int{0, 1, 77, CollectiveBlocks - 1} {
		for _, c := range cases {
			tag := CollectiveTagBase - block*CollectiveBlockSize - c.off
			info, ok := DecodeTag(tag)
			if !ok {
				t.Fatalf("block %d off %d: not a collective tag", block, c.off)
			}
			want := TagInfo{Block: block, Op: c.op, Algorithm: c.alg, Phase: c.phse}
			if info != want {
				t.Fatalf("block %d off %d: decoded %+v, want %+v", block, c.off, info, want)
			}
		}
	}
	for _, tag := range []int{0, 1, -1, 42, CollectiveTagBase + 1, CollectiveTagBase - 8, CollectiveTagBase - CollectiveBlocks*CollectiveBlockSize} {
		if info, ok := DecodeTag(tag); ok {
			t.Fatalf("tag %d decoded as %+v, want not-a-collective", tag, info)
		}
	}
}

func TestSequentialDepth(t *testing.T) {
	if d := OpBcast.SequentialDepth(AlgLinear, 16); d != 15 {
		t.Fatalf("linear bcast depth = %d", d)
	}
	if d := OpBcast.SequentialDepth(AlgBinomial, 16); d != 4 {
		t.Fatalf("binomial bcast depth = %d", d)
	}
	if d := OpBcast.SequentialDepth(AlgBinomial, 9); d != 4 {
		t.Fatalf("binomial bcast depth(9) = %d", d)
	}
	if d := OpBarrier.SequentialDepth(AlgLinear, 8); d != 14 {
		t.Fatalf("barrier depth = %d", d)
	}
	if d := OpAlltoall.SequentialDepth(AlgLinear, 8); d != 7 {
		t.Fatalf("alltoall depth = %d", d)
	}
}

// runAlltoallAllreduce is the property-test kernel: one alltoall of
// rank-stamped chunks and one allreduce, with every value verified.
func runAlltoallAllreduce(t *testing.T, ranks int, alg Algorithm) *World {
	t.Helper()
	w := worldWith(ranks, alg)
	_, err := w.Run(func(r *Rank) {
		chunks := make([]any, ranks)
		for dst := range chunks {
			chunks[dst] = fmt.Sprintf("%d->%d", r.ID(), dst)
		}
		out := r.Alltoall(64, chunks)
		for src, got := range out {
			if want := fmt.Sprintf("%d->%d", src, r.ID()); got != want {
				t.Errorf("ranks=%d rank %d: alltoall[%d] = %v, want %s", ranks, r.ID(), src, got, want)
			}
		}
		sum := r.Allreduce(8, r.ID()*r.ID(), func(a, b any) any { return a.(int) + b.(int) })
		want := 0
		for i := 0; i < ranks; i++ {
			want += i * i
		}
		if sum != want {
			t.Errorf("ranks=%d rank %d: allreduce = %v, want %d", ranks, r.ID(), sum, want)
		}
	})
	if err != nil {
		t.Fatalf("ranks=%d: %v", ranks, err)
	}
	return w
}

func TestAlltoallAllreduceProperty(t *testing.T) {
	for ranks := 2; ranks <= 16; ranks++ {
		for _, alg := range []Algorithm{AlgLinear, AlgBinomial} {
			runAlltoallAllreduce(t, ranks, alg)
		}
	}
}

// TestAlltoallAllreduceDeterministic re-runs the kernel and byte-compares
// the serialized trace and the replayed delivery log — the same
// byte-identity standard TestParallelSweepIsDeterministic enforces on
// full sweeps.
func TestAlltoallAllreduceDeterministic(t *testing.T) {
	for _, ranks := range []int{2, 5, 8, 16} {
		for _, alg := range []Algorithm{AlgLinear, AlgBinomial} {
			var traces, logs []string
			for run := 0; run < 2; run++ {
				w := runAlltoallAllreduce(t, ranks, alg)
				var tb bytes.Buffer
				if err := w.Trace().WriteCSV(&tb); err != nil {
					t.Fatal(err)
				}
				traces = append(traces, tb.String())

				s := sim.New()
				net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, (ranks+3)/4))
				if err := trace.Replay(s, net, w.Trace(), nil); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				var lb strings.Builder
				if err := trace.WriteDeliveries(&lb, net.Log()); err != nil {
					t.Fatal(err)
				}
				logs = append(logs, lb.String())
			}
			if traces[0] != traces[1] {
				t.Fatalf("ranks=%d alg=%v: traces differ across identical runs", ranks, alg)
			}
			if logs[0] != logs[1] {
				t.Fatalf("ranks=%d alg=%v: delivery logs differ across identical runs", ranks, alg)
			}
			if len(logs[0]) == 0 {
				t.Fatalf("ranks=%d alg=%v: empty delivery log", ranks, alg)
			}
		}
	}
}
