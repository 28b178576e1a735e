package sim

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random-number stream with the variate
// generators a workload model needs. Distinct streams with distinct seeds
// are independent, so different model components never perturb each other's
// draws (the classic simulation-methodology requirement).
type Stream struct {
	rng *rand.Rand
}

// NewStream returns a stream seeded deterministically from seed.
func NewStream(seed uint64) *Stream {
	return &Stream{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Float64 returns a uniform variate in [0, 1).
func (st *Stream) Float64() float64 { return st.rng.Float64() }

// IntN returns a uniform integer in [0, n).
func (st *Stream) IntN(n int) int { return st.rng.IntN(n) }

// Perm returns a random permutation of [0, n).
func (st *Stream) Perm(n int) []int { return st.rng.Perm(n) }

// Exponential returns an exponential variate with the given mean.
//
//lint:allow ctxflow rejection loop over the seeded stream; terminates after finitely many draws with probability one
func (st *Stream) Exponential(mean float64) float64 {
	u := st.rng.Float64()
	for u == 0 {
		u = st.rng.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normal variate.
func (st *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*st.rng.NormFloat64()
}

// Uniform returns a uniform variate in [lo, hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*st.rng.Float64()
}
