package coll_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"commchar/internal/coll"
	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/sp2"
	"commchar/internal/trace"
)

// runKernel acquires and replays a kernel under the given collective
// algorithm family, returning the full characterization.
func runKernel(t testing.TB, procs int, alg mp.Algorithm, kernel func(r *mp.Rank)) *core.Characterization {
	t.Helper()
	tr, err := core.AcquireMessagePassingWith(procs, alg, func(w *mp.World) error {
		_, err := w.Run(kernel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := core.ReplayTraceContext(context.Background(), tr, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(procs)...), sp2.Default(), nil, sim.Watchdog{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := raw.Characterize("kernel", core.StrategyStatic)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allOpsKernel exercises every collective plus point-to-point traffic.
func allOpsKernel(r *mp.Rank) {
	r.Barrier()
	r.Bcast(0, 512, nil)
	r.Gather(1, 128, fmt.Sprintf("g%d", r.ID()))
	r.Reduce(2, 64, 1, func(a, b any) any { return a.(int) + b.(int) })
	r.Allreduce(8, r.ID(), func(a, b any) any { return a.(int) + b.(int) })
	chunks := make([]any, r.Size())
	for i := range chunks {
		chunks[i] = nil
	}
	r.Alltoall(2048, chunks)
	// Point-to-point ring with an application tag.
	r.Send((r.ID()+1)%r.Size(), 7, 96, nil)
	r.Recv((r.ID()-1+r.Size())%r.Size(), 7)
}

func TestExtractionLossless(t *testing.T) {
	for _, alg := range []mp.Algorithm{mp.AlgLinear, mp.AlgBinomial} {
		c := runKernel(t, 8, alg, allOpsKernel)
		cc := c.Coll
		if cc == nil {
			t.Fatalf("alg=%v: no collective characterization", alg)
		}

		// Independent count: every traced send with a collective tag is
		// one delivery that must be attributed to exactly one instance.
		wantColl := 0
		for _, seq := range c.Trace.Events {
			for _, e := range seq {
				if e.Op != trace.OpSend {
					continue
				}
				if _, ok := mp.DecodeTag(e.Tag); ok {
					wantColl++
				}
			}
		}
		if cc.Messages != wantColl {
			t.Fatalf("alg=%v: attributed %d collective messages, trace has %d", alg, cc.Messages, wantColl)
		}
		if cc.Messages+cc.PointToPoint != len(c.Log) {
			t.Fatalf("alg=%v: %d coll + %d ptp != %d log", alg, cc.Messages, cc.PointToPoint, len(c.Log))
		}
		var instMsgs int
		for _, inst := range cc.Instances {
			instMsgs += inst.Messages
		}
		if instMsgs != cc.Messages {
			t.Fatalf("alg=%v: instances hold %d messages, attributed %d", alg, instMsgs, cc.Messages)
		}
		if cc.PointToPoint != 8 {
			t.Fatalf("alg=%v: point-to-point = %d, want 8 (the app ring)", alg, cc.PointToPoint)
		}

		// The kernel's collective sequence, in block order: barrier,
		// bcast, gather, reduce, allreduce (reduce+bcast), alltoall.
		wantOps := []string{"barrier", "bcast", "gather", "reduce", "reduce", "bcast", "alltoall"}
		if len(cc.Instances) != len(wantOps) {
			t.Fatalf("alg=%v: %d instances, want %d", alg, len(cc.Instances), len(wantOps))
		}
		for i, inst := range cc.Instances {
			if inst.Op != wantOps[i] {
				t.Fatalf("alg=%v: instance %d is %s, want %s", alg, i, inst.Op, wantOps[i])
			}
			if inst.Seq != i {
				t.Fatalf("alg=%v: instance %d has seq %d", alg, i, inst.Seq)
			}
			if inst.Ranks != 8 {
				t.Fatalf("alg=%v: instance %d has %d ranks", alg, i, inst.Ranks)
			}
			if inst.Span <= 0 {
				t.Fatalf("alg=%v: instance %d span %d", alg, i, inst.Span)
			}
		}
		if r := cc.Instances[1].Root; r != 0 {
			t.Fatalf("alg=%v: bcast root %d", alg, r)
		}
		if r := cc.Instances[2].Root; r != 1 {
			t.Fatalf("alg=%v: gather root %d", alg, r)
		}
		if r := cc.Instances[3].Root; r != 2 {
			t.Fatalf("alg=%v: reduce root %d", alg, r)
		}
		if r := cc.Instances[6].Root; r != -1 {
			t.Fatalf("alg=%v: alltoall root %d", alg, r)
		}
		// The allreduce pair is fused.
		if cc.Instances[4].Composite != "allreduce" || cc.Instances[5].Composite != "allreduce" {
			t.Fatalf("alg=%v: allreduce pair not fused: %q/%q",
				alg, cc.Instances[4].Composite, cc.Instances[5].Composite)
		}
		// Algorithm discrimination: the broadcast family names the spec.
		wantAlg := "linear"
		wantShape := "star-out"
		wantDepth := 7
		if alg == mp.AlgBinomial {
			wantAlg, wantShape, wantDepth = "binomial", "binomial-tree", 3
		}
		b := cc.Instances[1]
		if b.Algorithm != wantAlg || b.Shape != wantShape || b.Depth != wantDepth {
			t.Fatalf("alg=%v: bcast characterized as %s/%s depth %d", alg, b.Algorithm, b.Shape, b.Depth)
		}
		if a := cc.Instances[6]; a.Algorithm != "pairwise" || a.Regime != "medium" {
			t.Fatalf("alltoall characterized as %s/%s", a.Algorithm, a.Regime)
		}
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	// Two independent acquire+replay+analyze passes must produce
	// byte-identical collective characterizations — the same standard
	// TestParallelSweepIsDeterministic enforces on whole sweeps.
	var blobs [][]byte
	for i := 0; i < 2; i++ {
		c := runKernel(t, 8, mp.AlgBinomial, allOpsKernel)
		b, err := json.Marshal(c.Coll)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("collective characterizations differ across identical runs")
	}
}

func TestAnalyzeSkipsForeignTraces(t *testing.T) {
	if cc, err := coll.Analyze(nil, nil, nil, 0); cc != nil || err != nil {
		t.Fatalf("nil trace: %v, %v", cc, err)
	}
	tr := trace.New(2)
	tr.Add(0, trace.Event{Op: trace.OpSend, Peer: 1, Bytes: 8, Tag: 3})
	tr.Add(1, trace.Event{Op: trace.OpRecv, Peer: 0, Tag: 3})
	if cc, err := coll.Analyze(tr, nil, nil, 0); cc != nil || err != nil {
		t.Fatalf("point-to-point trace: %v, %v", cc, err)
	}
}

// modelKernel runs one rooted collective per payload size with a barrier
// before each, so entry desynchronization does not leak into the spans
// the model is fitted against.
func modelKernel(op string, sizes []int) func(r *mp.Rank) {
	return func(r *mp.Rank) {
		for _, b := range sizes {
			r.Barrier()
			switch op {
			case "bcast":
				r.Bcast(0, b, nil)
			case "reduce":
				r.Reduce(0, b, 1, func(a, b any) any { return a.(int) + b.(int) })
			}
		}
	}
}

// findModel returns the fitted model of the (op, algorithm) group.
func findModel(t *testing.T, cc *coll.Characterization, op, alg string) coll.OpModel {
	t.Helper()
	for _, m := range cc.PerOp {
		if m.Op == op && m.Algorithm == alg {
			return m
		}
	}
	t.Fatalf("no fitted model for %s/%s in %+v", op, alg, cc.PerOp)
	return coll.OpModel{}
}

// TestModelReproducesSpans is the acceptance gate: the fitted pLogP-style
// model must reproduce the measured per-collective spans within a stated
// relative error — mean ≤ 5%, max ≤ 15% — with R² ≥ 0.95, for linear and
// binomial algorithms, validated with the same GoF machinery
// (stats.RSquared inside the fit) as the SP2 overhead model.
func TestModelReproducesSpans(t *testing.T) {
	sizes := []int{64, 256, 1024, 4096, 16384, 65536}
	for _, op := range []string{"bcast", "reduce"} {
		for _, alg := range []mp.Algorithm{mp.AlgLinear, mp.AlgBinomial} {
			c := runKernel(t, 8, alg, modelKernel(op, sizes))
			m := findModel(t, c.Coll, op, alg.String())
			if m.Count != len(sizes) {
				t.Fatalf("%s/%v: %d instances, want %d", op, alg, m.Count, len(sizes))
			}
			if m.R2 < 0.95 {
				t.Errorf("%s/%v: R2 = %.4f < 0.95", op, alg, m.R2)
			}
			if m.MeanRelErr > 0.05 {
				t.Errorf("%s/%v: mean relative error %.4f > 0.05", op, alg, m.MeanRelErr)
			}
			if m.MaxRelErr > 0.15 {
				t.Errorf("%s/%v: max relative error %.4f > 0.15", op, alg, m.MaxRelErr)
			}
			if m.G <= 0 {
				t.Errorf("%s/%v: per-byte gap G = %.4f, want > 0", op, alg, m.G)
			}
		}
	}
}

func TestIdleWaveFromStaggeredEntry(t *testing.T) {
	// Ranks enter a broadcast staggered by exactly 100 µs per rank: the
	// reconstructed entry front must be a perfect wave with that slope.
	const delta = 100_000 // ns per rank
	c := runKernel(t, 8, mp.AlgLinear, func(r *mp.Rank) {
		r.Compute(sim.Duration(r.ID() * delta))
		r.Bcast(0, 1024, nil)
	})
	cc := c.Coll
	if cc == nil || len(cc.Instances) != 1 {
		t.Fatalf("instances = %+v", cc)
	}
	inst := cc.Instances[0]
	if inst.WaveR2 < 0.9999 {
		t.Fatalf("wave R2 = %.6f", inst.WaveR2)
	}
	if inst.WaveNSPerRank < delta*0.999 || inst.WaveNSPerRank > delta*1.001 {
		t.Fatalf("wave slope = %.1f ns/rank, want ~%d", inst.WaveNSPerRank, delta)
	}
	if inst.Desync != sim.Duration(7*delta) {
		t.Fatalf("desync = %d, want %d", inst.Desync, 7*delta)
	}
	if inst.DesyncIndex <= 0 {
		t.Fatalf("desync index = %f", inst.DesyncIndex)
	}
	// Rank 0 (the root, entering first) waits on nothing in the bcast;
	// late ranks find their message already delivered or wait briefly.
	if cc.Idle.PerRank[0].IdleNS != 0 {
		t.Fatalf("root idle = %d ns", cc.Idle.PerRank[0].IdleNS)
	}
	if cc.Idle.MeanIdleFraction < 0 || cc.Idle.MaxIdleFraction > 1 {
		t.Fatalf("idle fractions out of range: %+v", cc.Idle)
	}
}

func TestRankActivityAccounting(t *testing.T) {
	c := runKernel(t, 8, mp.AlgLinear, allOpsKernel)
	cc := c.Coll
	if len(cc.Idle.PerRank) != 8 {
		t.Fatalf("%d rank activities", len(cc.Idle.PerRank))
	}
	for _, ra := range cc.Idle.PerRank {
		total := ra.BusyNS + ra.OverheadNS + ra.IdleNS
		if total != ra.FinishNS {
			t.Fatalf("rank %d: busy+overhead+idle = %d != finish %d", ra.Rank, total, ra.FinishNS)
		}
		if ra.FinishNS > int64(cc.Elapsed) {
			t.Fatalf("rank %d finishes at %d after the makespan %d", ra.Rank, ra.FinishNS, cc.Elapsed)
		}
	}
}

func TestAnalyzeEquivalentUnderExplicitCall(t *testing.T) {
	// Analyze called directly must agree with the characterization's
	// embedded result (same trace, log, cost, elapsed).
	c := runKernel(t, 4, mp.AlgLinear, allOpsKernel)
	direct, err := coll.Analyze(c.Trace, c.Log, sp2.Default(), c.Elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, c.Coll) {
		t.Fatal("direct Analyze disagrees with the pipeline's embedded result")
	}
}

func BenchmarkAnalyze(b *testing.B) {
	c := runKernel(b, 16, mp.AlgBinomial, func(r *mp.Rank) {
		for i := 0; i < 32; i++ {
			r.Allreduce(1024, r.ID(), func(a, b any) any { return a.(int) + b.(int) })
			chunks := make([]any, r.Size())
			r.Alltoall(512, chunks)
		}
	})
	// Pin the workload shape: 96 instances, 8,640 messages.
	if len(c.Coll.Instances) != 96 || c.Coll.Messages != 8640 {
		b.Fatalf("bench workload drifted: %d instances, %d messages",
			len(c.Coll.Instances), c.Coll.Messages)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.Analyze(c.Trace, c.Log, sp2.Default(), c.Elapsed); err != nil {
			b.Fatal(err)
		}
	}
}
