package stats

import (
	"testing"
	"testing/quick"

	"commchar/internal/sim"
)

func TestSpatialUniform(t *testing.T) {
	// 16 processors, src 0 sends ~equal counts everywhere else.
	st := sim.NewStream(1)
	counts := make([]int, 16)
	for i := 0; i < 15000; i++ {
		d := 1 + st.IntN(15)
		counts[d]++
	}
	sd := AnalyzeSpatial(0, counts)
	if sd.Pattern != SpatialUniform {
		t.Fatalf("pattern = %v (chi p=%v)", sd.Pattern, sd.UniformChi.PValue)
	}
	if sd.Entropy < 0.99 {
		t.Fatalf("entropy = %v", sd.Entropy)
	}
}

func TestSpatialBimodalUniform(t *testing.T) {
	// The paper's "favorite processor" pattern: one destination gets the
	// lion's share, the rest equal.
	st := sim.NewStream(2)
	counts := make([]int, 16)
	for i := 0; i < 20000; i++ {
		if st.Float64() < 0.5 {
			counts[7]++
		} else {
			// Uniform over {1..15} minus the favorite.
			d := 1 + st.IntN(14)
			if d >= 7 {
				d++
			}
			counts[d]++
		}
	}
	sd := AnalyzeSpatial(0, counts)
	if sd.Pattern != SpatialBimodalUniform {
		t.Fatalf("pattern = %v, favorite %d (%.3f)", sd.Pattern, sd.Favorite, sd.FavoriteFraction)
	}
	if sd.Favorite != 7 {
		t.Fatalf("favorite = %d, want 7", sd.Favorite)
	}
	if sd.FavoriteFraction < 0.4 {
		t.Fatalf("favorite fraction = %v", sd.FavoriteFraction)
	}
}

func TestSpatialStructured(t *testing.T) {
	// Butterfly-style: only log2(16)=4 partners.
	counts := make([]int, 16)
	counts[1] = 100
	counts[2] = 100
	counts[4] = 100
	counts[8] = 100
	sd := AnalyzeSpatial(0, counts)
	if sd.Pattern != SpatialStructured {
		t.Fatalf("pattern = %v, want structured", sd.Pattern)
	}
	if sd.Partners != 4 {
		t.Fatalf("partners = %d", sd.Partners)
	}
}

func TestSpatialGeneral(t *testing.T) {
	// Linearly increasing traffic: neither uniform nor bimodal.
	counts := make([]int, 16)
	for i := 1; i < 16; i++ {
		counts[i] = i * 100
	}
	sd := AnalyzeSpatial(0, counts)
	if sd.Pattern != SpatialGeneral {
		t.Fatalf("pattern = %v, want general", sd.Pattern)
	}
}

func TestSpatialNoTraffic(t *testing.T) {
	sd := AnalyzeSpatial(3, make([]int, 8))
	if sd.Total != 0 || sd.Pattern != SpatialGeneral {
		t.Fatalf("empty spatial = %+v", sd)
	}
}

func TestSpatialSelfExcluded(t *testing.T) {
	counts := make([]int, 8)
	counts[2] = 500 // self traffic must be ignored
	counts[1] = 10
	counts[3] = 10
	sd := AnalyzeSpatial(2, counts)
	if sd.Total != 20 {
		t.Fatalf("total = %d, want 20 (self excluded)", sd.Total)
	}
	if sd.Fractions[2] != 0 {
		t.Fatal("self fraction not zero")
	}
}

func TestSpatialFractionsSumToOneProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		st := sim.NewStream(seed)
		counts := make([]int, 16)
		for i := 0; i < 500; i++ {
			counts[st.IntN(16)]++
		}
		sd := AnalyzeSpatial(0, counts)
		if sd.Total == 0 {
			return true
		}
		var sum float64
		for _, f := range sd.Fractions {
			if f < 0 || f > 1 {
				return false
			}
			sum += f
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeLengthsBimodal(t *testing.T) {
	p := AnalyzeLengthCounts(map[int]int{8: 4, 40: 2})
	if !p.Bimodal {
		t.Fatal("two sizes not flagged bimodal")
	}
	if p.Total != 6 || p.Bytes != 8*4+40*2 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Distinct[0].Bytes != 8 || p.Distinct[0].Count != 4 {
		t.Fatalf("distinct = %+v", p.Distinct)
	}
}

func TestAnalyzeLengthsEmpty(t *testing.T) {
	p := AnalyzeLengthCounts(nil)
	if p.Total != 0 || p.Bimodal {
		t.Fatalf("empty profile = %+v", p)
	}
}

func TestAggregateSpatial(t *testing.T) {
	per := [][]int{
		{0, 10, 10, 10},
		{30, 0, 0, 0},
		{5, 5, 0, 5},
		{0, 0, 0, 0},
	}
	out := AggregateSpatial(per)
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	if out[1].Total != 30 || out[1].Partners != 1 {
		t.Fatalf("source 1 = %+v", out[1])
	}
}
