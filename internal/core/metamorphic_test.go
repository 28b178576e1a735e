package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// Metamorphic oracles for Analyze: transformations of the input log whose
// effect on the characterization is known without knowing the right
// answer. Results are compared through their JSON encoding, which writes
// every float in its shortest round-trip form, so equal encodings mean
// bit-identical values.

// metamorphicProcs is the machine size of the metamorphic log.
const metamorphicProcs = 8

func analyzeForOracle(t *testing.T, log []mesh.Delivery) *Characterization {
	t.Helper()
	c, err := Analyze("metamorphic", StrategyDynamic, log, metamorphicProcs, 1<<40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAnalyzeInvariantUnderTimeShift shifts every Inject and End by one
// constant. Inter-arrival gaps, destinations and lengths are unchanged, so
// every temporal, spatial and volume result must be bit-identical.
func TestAnalyzeInvariantUnderTimeShift(t *testing.T) {
	log := syntheticLog(metamorphicProcs, 300, 10000, 1)
	shifted := slices.Clone(log)
	const shift = 1_234_567
	for i := range shifted {
		shifted[i].Inject += shift
		shifted[i].End += shift
	}
	base, moved := analyzeForOracle(t, log), analyzeForOracle(t, shifted)

	for _, part := range []struct {
		name      string
		base, got any
	}{
		{"PerSource", base.PerSource, moved.PerSource},
		{"Aggregate", base.Aggregate, moved.Aggregate},
		{"Spatial", base.Spatial, moved.Spatial},
		{"Volume", base.Volume, moved.Volume},
	} {
		if b, g := jsonOf(t, part.base), jsonOf(t, part.got); b != g {
			t.Errorf("%s changed under a time shift of %d ns:\nbase    %s\nshifted %s", part.name, shift, b, g)
		}
	}
}

// TestAnalyzeEquivariantUnderTimeScale multiplies every Inject and End by
// k. Every inter-arrival gap scales by k, so for each source and for the
// aggregate the best fit must stay the same family with k times the mean
// and the same R². Only the best fit is compared: the fits below it are
// near-ties whose order the rescaled DUD starts may swap.
func TestAnalyzeEquivariantUnderTimeScale(t *testing.T) {
	log := syntheticLog(metamorphicProcs, 300, 10000, 1)
	base := analyzeForOracle(t, log)
	for _, k := range []int64{2, 3, 1024} {
		scaled := slices.Clone(log)
		for i := range scaled {
			scaled[i].Inject *= sim.Time(k)
			scaled[i].End *= sim.Time(k)
		}
		got := analyzeForOracle(t, scaled)
		type pair struct {
			name      string
			base, got *SourceTemporal
		}
		pairs := []pair{{"aggregate", &base.Aggregate, &got.Aggregate}}
		for s := range base.PerSource {
			pairs = append(pairs, pair{fmt.Sprintf("source %d", s), &base.PerSource[s], &got.PerSource[s]})
		}
		for _, src := range pairs {
			bf, gf := src.base.Best(), src.got.Best()
			if bf == nil || gf == nil {
				t.Fatalf("k=%d %s: no best fit (base %v, scaled %v)", k, src.name, bf, gf)
			}
			if bf.Dist.Name() != gf.Dist.Name() {
				t.Errorf("k=%d %s: best family %s, want %s", k, src.name, gf.Dist.Name(), bf.Dist.Name())
				continue
			}
			want := float64(k) * bf.Dist.Mean()
			if rel := math.Abs(gf.Dist.Mean()-want) / want; rel > 1e-6 {
				t.Errorf("k=%d %s: best mean %v, want %v (relative error %.2g)", k, src.name, gf.Dist.Mean(), want, rel)
			}
			if d := math.Abs(gf.R2 - bf.R2); d > 1e-9 {
				t.Errorf("k=%d %s: best R² %v, want %v (|ΔR²| %.2g)", k, src.name, gf.R2, bf.R2, d)
			}
		}
	}
}

// TestAnalyzeEquivariantUnderRankRelabel renames rank p to (p+3) mod 8 in
// every source and destination. Each source keeps its own injection times,
// so PerSource[perm(s)] must equal PerSource[s] bit for bit apart from
// Src, the destination shares must permute the same way, and the volume
// profile must not change.
//
// The aggregate is deliberately not compared: the pooled gaps are
// concatenated in source order, so relabelling reorders them, and
// Summarize's sum of squares rounds differently. On this log that moves
// the moment-started Normal fit from μ = 9035.9 to μ = 9027.9 and the
// gamma KS statistic in its 11th digit.
func TestAnalyzeEquivariantUnderRankRelabel(t *testing.T) {
	perm := func(p int) int { return (p + 3) % metamorphicProcs }
	log := syntheticLog(metamorphicProcs, 300, 10000, 1)
	relabelled := slices.Clone(log)
	for i := range relabelled {
		relabelled[i].Src = int32(perm(int(relabelled[i].Src)))
		relabelled[i].Dst = int32(perm(int(relabelled[i].Dst)))
	}
	base, moved := analyzeForOracle(t, log), analyzeForOracle(t, relabelled)

	for s := range metamorphicProcs {
		want, got := base.PerSource[s], moved.PerSource[perm(s)]
		if got.Src != perm(s) {
			t.Errorf("PerSource[%d].Src = %d, want %d", perm(s), got.Src, perm(s))
		}
		got.Src = want.Src
		if w, g := jsonOf(t, want), jsonOf(t, got); w != g {
			t.Errorf("source %d relabelled to %d changed its temporal result:\nbase      %s\nrelabelled %s", s, perm(s), w, g)
		}

		ws, gs := base.Spatial[s], moved.Spatial[perm(s)]
		if gs.Total != ws.Total || gs.Partners != ws.Partners {
			t.Errorf("source %d: spatial total/partners %d/%d, want %d/%d", s, gs.Total, gs.Partners, ws.Total, ws.Partners)
		}
		for d, f := range ws.Fractions {
			if g := gs.Fractions[perm(d)]; math.Float64bits(g) != math.Float64bits(f) {
				t.Errorf("source %d: share to %d is %v after relabelling, want %v", s, d, g, f)
			}
		}
	}
	if b, g := jsonOf(t, base.Volume), jsonOf(t, moved.Volume); b != g {
		t.Errorf("Volume changed under rank relabelling:\nbase      %s\nrelabelled %s", b, g)
	}
}
