package stats

import (
	"fmt"
	"math"
	"sort"
)

// SpatialPattern classifies the spatial distribution of one processor's
// messages, in the paper's vocabulary.
type SpatialPattern int

const (
	// SpatialUniform: every other processor receives an equal share.
	SpatialUniform SpatialPattern = iota
	// SpatialBimodalUniform: one "favorite" processor receives the
	// maximum share and the rest receive equal shares (the pattern the
	// paper reports for IS and Cholesky).
	SpatialBimodalUniform
	// SpatialStructured: traffic concentrates on a few fixed partners
	// (butterfly, transpose, or nearest-neighbour patterns).
	SpatialStructured
	// SpatialGeneral: none of the closed forms fit; the empirical vector
	// itself is the model.
	SpatialGeneral
)

func (p SpatialPattern) String() string {
	switch p {
	case SpatialUniform:
		return "uniform"
	case SpatialBimodalUniform:
		return "bimodal-uniform"
	case SpatialStructured:
		return "structured"
	case SpatialGeneral:
		return "general"
	default:
		return fmt.Sprintf("SpatialPattern(%d)", int(p))
	}
}

// SpatialDist is the analyzed spatial distribution of one source processor.
type SpatialDist struct {
	Src       int
	Total     int       // messages sent
	Fractions []float64 // share per destination (index = processor number)
	Pattern   SpatialPattern

	// Favorite processor, meaningful for bimodal-uniform.
	Favorite         int
	FavoriteFraction float64

	// Partners is the number of destinations receiving any traffic.
	Partners int
	// Entropy is the normalized Shannon entropy of the destination
	// distribution: 1 = perfectly uniform over the other processors.
	Entropy float64
	// UniformChi is the χ² test of the full vector against uniform.
	UniformChi ChiSquareResult
	// RestChi is the χ² test of the non-favorite remainder against
	// uniform (backs the bimodal-uniform classification).
	RestChi ChiSquareResult
}

// significance threshold for the classification tests.
const spatialAlpha = 0.05

// AnalyzeSpatial classifies the destination counts of one source.
// counts[i] is the number of messages src sent to processor i; counts[src]
// is ignored (self-messages never enter the network).
func AnalyzeSpatial(src int, counts []int) SpatialDist {
	n := len(counts)
	d := SpatialDist{Src: src, Fractions: make([]float64, n), Favorite: -1}
	var others []int // destination indices excluding self
	for i, c := range counts {
		if i == src {
			continue
		}
		others = append(others, i)
		d.Total += c
		if c > 0 {
			d.Partners++
		}
	}
	if d.Total == 0 {
		d.Pattern = SpatialGeneral
		return d
	}
	for _, i := range others {
		d.Fractions[i] = float64(counts[i]) / float64(d.Total)
	}

	// Normalized entropy over the other processors.
	var h float64
	for _, i := range others {
		p := d.Fractions[i]
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	if len(others) > 1 {
		d.Entropy = h / math.Log(float64(len(others)))
	}

	// Favorite: destination with the maximum share.
	for _, i := range others {
		if d.Favorite < 0 || counts[i] > counts[d.Favorite] {
			d.Favorite = i
		}
	}
	d.FavoriteFraction = d.Fractions[d.Favorite]

	// Structured: traffic confined to a few fixed partners.
	if d.Partners <= structuredPartnerLimit(len(others)) {
		d.Pattern = SpatialStructured
		return d
	}

	// Uniform: χ² of all destinations against equal shares.
	obs := make([]int, len(others))
	exp := make([]float64, len(others))
	for k, i := range others {
		obs[k] = counts[i]
		exp[k] = 1
	}
	d.UniformChi = ChiSquareCounts(obs, exp)
	if d.UniformChi.PValue > spatialAlpha {
		d.Pattern = SpatialUniform
		return d
	}

	// Bimodal-uniform: remove the favorite; the rest must look uniform and
	// the favorite must stand clearly above them.
	restObs := make([]int, 0, len(others)-1)
	for _, i := range others {
		if i == d.Favorite {
			continue
		}
		restObs = append(restObs, counts[i])
	}
	restExp := make([]float64, len(restObs))
	for k := range restExp {
		restExp[k] = 1
	}
	d.RestChi = ChiSquareCounts(restObs, restExp)
	meanRest := (1 - d.FavoriteFraction) / float64(len(restObs))
	if d.RestChi.PValue > spatialAlpha && d.FavoriteFraction > 1.5*meanRest {
		d.Pattern = SpatialBimodalUniform
		return d
	}

	d.Pattern = SpatialGeneral
	return d
}

// structuredPartnerLimit: with n possible destinations, traffic touching at
// most ~log2(n)+1 partners is a fixed communication structure rather than a
// distribution over the machine.
func structuredPartnerLimit(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Floor(math.Log2(float64(n)))) + 1
}

// AggregateSpatial sums per-source destination counts into a single
// machine-wide destination profile and classifies it.
func AggregateSpatial(perSource [][]int) []SpatialDist {
	out := make([]SpatialDist, len(perSource))
	for src, counts := range perSource {
		out[src] = AnalyzeSpatial(src, counts)
	}
	return out
}

// LengthCount is one distinct message length and its frequency.
type LengthCount struct {
	Bytes int
	Count int
}

// LengthProfile characterizes the volume attribute: message count, mean
// length, and the distinct-length spectrum (shared-memory traffic is a
// small set of fixed sizes; message-passing traffic is app-defined).
type LengthProfile struct {
	Total    int
	Bytes    int64 // total bytes
	Mean     float64
	Distinct []LengthCount // sorted by descending count, then size
	Bimodal  bool          // exactly two distinct sizes (control + data)
}

// AnalyzeLengthCounts builds the volume profile from each distinct
// message length's count, so that a caller already passing over the
// messages counts them there rather than collecting every length.
func AnalyzeLengthCounts(byLen map[int]int) LengthProfile {
	var p LengthProfile
	if len(byLen) == 0 {
		return p
	}
	p.Distinct = make([]LengthCount, 0, len(byLen))
	for l, c := range byLen {
		p.Total += c
		p.Bytes += int64(l) * int64(c)
		p.Distinct = append(p.Distinct, LengthCount{Bytes: l, Count: c})
	}
	p.Mean = float64(p.Bytes) / float64(p.Total)
	sort.SliceStable(p.Distinct, func(i, j int) bool {
		if p.Distinct[i].Count != p.Distinct[j].Count {
			return p.Distinct[i].Count > p.Distinct[j].Count
		}
		return p.Distinct[i].Bytes < p.Distinct[j].Bytes
	})
	p.Bimodal = len(p.Distinct) == 2
	return p
}
