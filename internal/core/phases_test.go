package core

import (
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// twoPhaseLog builds a log with two dense phases separated by a huge gap,
// each with a distinct message length so the split is verifiable.
func twoPhaseLog(procs int) ([]mesh.Delivery, sim.Time) {
	var log []mesh.Delivery
	id := int64(0)
	st := sim.NewStream(4)
	add := func(t sim.Time, bytes int) {
		id++
		src := st.IntN(procs)
		dst := st.IntN(procs - 1)
		if dst >= src {
			dst++
		}
		log = append(log, mesh.Delivery{
			ID: id, Src: int32(src), Dst: int32(dst), Bytes: bytes, Inject: t,
			End: t + 200, Hops: 2,
		})
	}
	t := sim.Time(0)
	for i := 0; i < 300; i++ {
		t += sim.Time(st.Exponential(100)) + 1
		add(t, 8)
	}
	t += 10_000_000 // 10 ms of silence
	for i := 0; i < 300; i++ {
		t += sim.Time(st.Exponential(100)) + 1
		add(t, 40)
	}
	return log, t + 1000
}

func TestSplitPhasesFindsTwo(t *testing.T) {
	log, elapsed := twoPhaseLog(8)
	c, err := Analyze("twophase", StrategyDynamic, log, 8, elapsed, 0)
	if err != nil {
		t.Fatal(err)
	}
	phases, err := c.SplitPhases(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("found %d phases, want 2", len(phases))
	}
	if phases[0].C.Messages != 300 || phases[1].C.Messages != 300 {
		t.Fatalf("phase sizes: %d, %d", phases[0].C.Messages, phases[1].C.Messages)
	}
	// Lengths distinguish the phases.
	if phases[0].C.Volume.Distinct[0].Bytes != 8 || phases[1].C.Volume.Distinct[0].Bytes != 40 {
		t.Fatalf("phase lengths: %+v / %+v", phases[0].C.Volume.Distinct, phases[1].C.Volume.Distinct)
	}
	if phases[0].End >= phases[1].Start {
		t.Fatal("phases overlap")
	}
	// Each phase must carry its own temporal fit.
	for _, ph := range phases {
		if ph.C.BestAggregate() == nil {
			t.Fatalf("phase %d has no fit", ph.Index)
		}
	}
}

func TestSplitPhasesSmoothTrafficIsOnePhase(t *testing.T) {
	st := sim.NewStream(5)
	var log []mesh.Delivery
	tm := sim.Time(0)
	for i := 0; i < 600; i++ {
		tm += sim.Time(st.Exponential(500)) + 1
		log = append(log, mesh.Delivery{
			ID: int64(i + 1), Src: int32(i % 4), Dst: int32((i + 1) % 4), Bytes: 8, Inject: tm,
			End: tm + 100, Hops: 1,
		})
	}
	c, err := Analyze("smooth", StrategyDynamic, log, 4, tm+100, 0)
	if err != nil {
		t.Fatal(err)
	}
	phases, err := c.SplitPhases(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exponential traffic has occasional large gaps; allow a couple of
	// spurious cuts but not wholesale fragmentation.
	if len(phases) > 3 {
		t.Fatalf("smooth traffic split into %d phases", len(phases))
	}
	total := 0
	for _, ph := range phases {
		total += ph.C.Messages
	}
	if total < 550 {
		t.Fatalf("phases dropped too many messages: %d", total)
	}
}

func TestBurstsRawSegmentation(t *testing.T) {
	log, elapsed := twoPhaseLog(8)
	c, err := Analyze("twophase", StrategyDynamic, log, 8, elapsed, 0)
	if err != nil {
		t.Fatal(err)
	}
	bursts := c.Bursts(0)
	if len(bursts) != 2 {
		t.Fatalf("bursts = %d, want 2", len(bursts))
	}
	total := 0
	for _, b := range bursts {
		total += b.Messages
	}
	if total != c.Messages {
		t.Fatalf("bursts lost messages: %d of %d", total, c.Messages)
	}
	if bursts[1].Start <= bursts[0].Start {
		t.Fatal("bursts out of order")
	}
}

func TestSplitPhasesTinyLog(t *testing.T) {
	log := []mesh.Delivery{{
		ID: 1, Src: 0, Dst: 1, Bytes: 8, Inject: 10,
		End: 20, Hops: 1,
	}}
	c, err := Analyze("tiny", StrategyDynamic, log, 2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SplitPhases(0, 0); err == nil {
		t.Fatal("single message split accepted")
	}
}

// TestSortPhasesBreaksStartTies pins the total order behind phase
// output: phases sharing a Start cycle must come out in segment-Index
// order no matter how the input slice was permuted. The repolint
// determinism analyzer found the previous comparator ordering by Start
// alone, which let equal-Start phases permute between runs.
func TestSortPhasesBreaksStartTies(t *testing.T) {
	perms := [][]Phase{
		{{Index: 2, Start: 100}, {Index: 0, Start: 100}, {Index: 3, Start: 50}, {Index: 1, Start: 100}},
		{{Index: 3, Start: 50}, {Index: 1, Start: 100}, {Index: 2, Start: 100}, {Index: 0, Start: 100}},
		{{Index: 0, Start: 100}, {Index: 3, Start: 50}, {Index: 2, Start: 100}, {Index: 1, Start: 100}},
	}
	want := []int{3, 0, 1, 2}
	for p, phases := range perms {
		sortPhases(phases)
		for i, ph := range phases {
			if ph.Index != want[i] {
				t.Fatalf("perm %d: position %d has Index %d, want %d", p, i, ph.Index, want[i])
			}
		}
	}
}
