// Package workload turns a communication characterization back into
// traffic: the paper's stated purpose ("these distributions can be used in
// the analysis of ICNs for developing realistic performance models"). Each
// source processor gets a generator that draws inter-arrival times from its
// fitted temporal distribution, destinations from its classified spatial
// model, and message lengths from its length spectrum. Driving the mesh
// with this synthetic traffic and comparing against the original run is the
// validation experiment for the whole methodology.
package workload

import (
	"errors"
	"fmt"
	"math"

	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
)

// SourceModel is one source processor's generative model.
type SourceModel struct {
	Src          int
	Interarrival stats.Distribution
	// Spatial model: the classified pattern plus what it needs.
	Pattern  stats.SpatialPattern
	Favorite int
	FavFrac  float64
	// Empirical destination weights, used for structured/general
	// patterns (and as the universe of destinations elsewhere).
	DestWeights []float64
	// Length spectrum.
	Lengths []stats.LengthCount
}

// Generator regenerates an application's traffic from its characterization.
type Generator struct {
	Procs   int
	Sources []SourceModel
}

// rateCalibrated wraps a fitted distribution with a linear time rescale so
// its mean equals the measured sample mean. Regression on the empirical CDF
// optimizes shape, not the first moment; calibrating the rate keeps the
// family (and hence burstiness) while reproducing the application's message
// generation rate exactly — the attribute the paper defines temporally.
type rateCalibrated struct {
	inner stats.Distribution
	k     float64 // time scale factor
}

func (d rateCalibrated) Name() string                  { return d.inner.Name() }
func (d rateCalibrated) Params() map[string]float64    { return d.inner.Params() }
func (d rateCalibrated) Mean() float64                 { return d.k * d.inner.Mean() }
func (d rateCalibrated) CDF(x float64) float64         { return d.inner.CDF(x / d.k) }
func (d rateCalibrated) Sample(st *sim.Stream) float64 { return d.k * d.inner.Sample(st) }
func (d rateCalibrated) String() string {
	return fmt.Sprintf("%s x%.4g", d.inner.String(), d.k)
}

// calibrate returns dist rescaled to the target mean when that is sane.
func calibrate(dist stats.Distribution, targetMean float64) stats.Distribution {
	m := dist.Mean()
	if m <= 0 || targetMean <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return dist
	}
	k := targetMean / m
	if k > 0.999 && k < 1.001 {
		return dist
	}
	return rateCalibrated{inner: dist, k: k}
}

// FromCharacterization builds the generator. Sources with no fitted
// temporal model (too few messages) are skipped.
func FromCharacterization(c *core.Characterization) (*Generator, error) {
	if c == nil || len(c.PerSource) == 0 {
		return nil, errors.New("workload: empty characterization")
	}
	g := &Generator{Procs: c.Procs}
	lengths := c.Volume.Distinct
	if len(lengths) == 0 {
		return nil, errors.New("workload: no length spectrum")
	}
	for src := 0; src < c.Procs; src++ {
		st := c.PerSource[src]
		best := st.Best()
		if best == nil {
			continue
		}
		sp := c.Spatial[src]
		if sp.Total == 0 {
			continue
		}
		g.Sources = append(g.Sources, SourceModel{
			Src:          src,
			Interarrival: calibrate(best.Dist, st.Summary.Mean),
			Pattern:      sp.Pattern,
			Favorite:     sp.Favorite,
			FavFrac:      sp.FavoriteFraction,
			DestWeights:  sp.Fractions,
			Lengths:      lengths,
		})
	}
	if len(g.Sources) == 0 {
		return nil, errors.New("workload: no source had enough traffic to model")
	}
	return g, nil
}

// Scaled returns a copy of the generator whose every source injects at
// factor times the original rate (inter-arrival times divided by factor),
// holding the spatial and volume models fixed. This is the offered-load
// knob for latency-vs-load studies.
func (g *Generator) Scaled(factor float64) *Generator {
	if factor <= 0 {
		panic(fmt.Sprintf("workload: scale factor %v", factor))
	}
	out := &Generator{Procs: g.Procs, Sources: make([]SourceModel, len(g.Sources))}
	copy(out.Sources, g.Sources)
	for i := range out.Sources {
		out.Sources[i].Interarrival = rateCalibrated{inner: out.Sources[i].Interarrival, k: 1 / factor}
	}
	return out
}

// UniformPoisson builds the literature's classic workload model — Poisson
// arrivals, uniformly random destinations — with the given per-source mean
// inter-arrival time and length spectrum. It is the baseline the paper's
// application-derived models are meant to replace.
func UniformPoisson(procs int, meanGapNS float64, lengths []stats.LengthCount) *Generator {
	if procs < 2 || meanGapNS <= 0 || len(lengths) == 0 {
		panic("workload: invalid uniform-Poisson parameters")
	}
	g := &Generator{Procs: procs}
	for src := 0; src < procs; src++ {
		g.Sources = append(g.Sources, SourceModel{
			Src:          src,
			Interarrival: stats.Exponential{Rate: 1 / meanGapNS},
			Pattern:      stats.SpatialUniform,
			Favorite:     -1,
			DestWeights:  make([]float64, procs),
			Lengths:      lengths,
		})
	}
	return g
}

// Drive spawns one injector process per modeled source, generating traffic
// until the given simulated time. The caller runs the simulator afterwards.
func (g *Generator) Drive(s *sim.Simulator, net *mesh.Network, until sim.Time, seed uint64) error {
	if ep := net.Topology().Endpoints(); ep < g.Procs {
		return fmt.Errorf("workload: %d processors on %d-node mesh", g.Procs, ep)
	}
	for i := range g.Sources {
		sm := g.Sources[i]
		st := sim.NewStream(seed ^ (uint64(sm.Src)+1)*0x9E3779B97F4A7C15)
		s.Spawn(fmt.Sprintf("gen-src%d", sm.Src), func(p *sim.Process) {
			for {
				gap := sm.Interarrival.Sample(st)
				if gap < 0 {
					gap = 0
				}
				next := p.Now() + sim.Time(gap)
				if next > until {
					return
				}
				p.Hold(sim.Duration(gap))
				dst := sm.sampleDest(st)
				if dst < 0 {
					continue
				}
				net.Inject(mesh.Message{
					ID:     net.NextID(),
					Src:    sm.Src,
					Dst:    dst,
					Bytes:  sampleLength(sm.Lengths, st),
					Inject: p.Now(),
				}, nil)
			}
		})
	}
	return nil
}

// Simulate drives g on a fresh network built from cfg until the given
// simulated time, runs the simulator to completion, and measures the
// delivery log.
func Simulate(g *Generator, cfg mesh.Config, until sim.Time, seed uint64) (Metrics, error) {
	s := sim.New()
	net := mesh.New(s, cfg)
	if err := g.Drive(s, net, until, seed); err != nil {
		return Metrics{}, err
	}
	if err := s.Run(); err != nil {
		return Metrics{}, err
	}
	return MeasureLog(net.Log(), s.Now(), net.MeanUtilization()), nil
}

// sampleDest draws a destination from the classified spatial model.
func (sm *SourceModel) sampleDest(st *sim.Stream) int {
	n := len(sm.DestWeights)
	switch sm.Pattern {
	case stats.SpatialUniform:
		// Uniform over everyone else.
		d := st.IntN(n - 1)
		if d >= sm.Src {
			d++
		}
		return d
	case stats.SpatialBimodalUniform:
		if st.Float64() < sm.FavFrac {
			return sm.Favorite
		}
		// Uniform over the rest.
		for {
			d := st.IntN(n - 1)
			if d >= sm.Src {
				d++
			}
			if d != sm.Favorite {
				return d
			}
		}
	default:
		// Empirical: weighted draw over the observed fractions.
		u := st.Float64()
		var acc float64
		for d, w := range sm.DestWeights {
			acc += w
			if u < acc {
				return d
			}
		}
		// Rounding slack: return the last destination with weight.
		for d := n - 1; d >= 0; d-- {
			if sm.DestWeights[d] > 0 {
				return d
			}
		}
		return -1
	}
}

// sampleLength draws a message length from the spectrum, weighted by count.
func sampleLength(spectrum []stats.LengthCount, st *sim.Stream) int {
	total := 0
	for _, lc := range spectrum {
		total += lc.Count
	}
	pick := st.IntN(total)
	for _, lc := range spectrum {
		pick -= lc.Count
		if pick < 0 {
			return lc.Bytes
		}
	}
	return spectrum[len(spectrum)-1].Bytes
}

// Metrics summarizes a network run for validation comparisons.
type Metrics struct {
	Messages        int
	MeanLatencyNS   float64
	MeanBlockedNS   float64
	MeanHops        float64
	MeanUtilization float64
	MessageRate     float64 // messages per µs of simulated time
	Failed          int     // messages the network gave up on
}

// MeasureLog computes metrics from a delivery log. Messages the network
// gave up on (fault injection) are counted in Failed and excluded from the
// means: a failed message's "latency" is its give-up time, not a transit
// time, and would pollute the characterization.
func MeasureLog(log []mesh.Delivery, elapsed sim.Time, meanUtil float64) Metrics {
	m := Metrics{MeanUtilization: meanUtil}
	for _, d := range log {
		if d.Status != mesh.StatusDelivered {
			m.Failed++
			continue
		}
		m.Messages++
		m.MeanLatencyNS += float64(d.Latency)
		m.MeanBlockedNS += float64(d.Blocked)
		m.MeanHops += float64(d.Hops)
	}
	if m.Messages == 0 {
		return m
	}
	n := float64(m.Messages)
	m.MeanLatencyNS /= n
	m.MeanBlockedNS /= n
	m.MeanHops /= n
	if elapsed > 0 {
		m.MessageRate = n / (float64(elapsed) / 1000)
	}
	return m
}

// Validation is the outcome of the synthetic-traffic experiment.
type Validation struct {
	Original  Metrics
	Synthetic Metrics
	// Relative errors, synthetic vs original.
	LatencyErr float64
	RateErr    float64
	UtilErr    float64
}

// Validate regenerates the characterized application's traffic on a fresh
// mesh of the same geometry for the same simulated duration, and compares
// network metrics.
func Validate(c *core.Characterization, seed uint64) (*Validation, error) {
	g, err := FromCharacterization(c)
	if err != nil {
		return nil, err
	}
	synth, err := Simulate(g, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(c.Procs)...), c.Elapsed, seed)
	if err != nil {
		return nil, err
	}
	if synth.Messages == 0 {
		return nil, errors.New("workload: synthetic run produced no traffic")
	}

	v := &Validation{
		Original:  MeasureLog(c.Log, c.Elapsed, c.MeanUtilization),
		Synthetic: synth,
	}
	v.LatencyErr = relErr(v.Synthetic.MeanLatencyNS, v.Original.MeanLatencyNS)
	v.RateErr = relErr(v.Synthetic.MessageRate, v.Original.MessageRate)
	v.UtilErr = relErr(v.Synthetic.MeanUtilization, v.Original.MeanUtilization)
	return v, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	e := (got - want) / want
	if e < 0 {
		return -e
	}
	return e
}
