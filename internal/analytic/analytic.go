// Package analytic closes the loop the paper opens: "these distributions
// can be used in the analysis of ICNs for developing realistic performance
// models". It implements a per-link open-queueing model of the wormhole
// mesh in the tradition of the analytic ICN studies the paper cites
// ([2], [3], [4]): every directed link is an M/G/1 server whose arrival
// rate comes from the characterized per-source message rates and spatial
// distributions, and whose service-time moments come from the message
// length spectrum; Pollaczek-Khinchine waiting times accumulate along the
// dimension-order path of each flow.
//
// Feeding the model with a fitted application characterization instead of
// the classic uniform assumption is exactly the paper's proposal.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
)

// Flow is one source-destination traffic stream.
type Flow struct {
	Src, Dst int
	// Rate in messages per nanosecond.
	Rate float64
}

// Workload is the analytic model's input: flows plus the message-length
// spectrum (shared by all flows).
type Workload struct {
	Procs   int
	Flows   []Flow
	Lengths []stats.LengthCount
}

// FromCharacterization derives the analytic workload from a measured
// characterization: per-source rates from the observed message counts over
// the run, destinations split by the observed spatial fractions.
func FromCharacterization(c *core.Characterization) (*Workload, error) {
	if c == nil || c.Elapsed <= 0 {
		return nil, errors.New("analytic: empty characterization")
	}
	w := &Workload{Procs: c.Procs, Lengths: c.Volume.Distinct}
	elapsed := float64(c.Elapsed)
	for src := 0; src < c.Procs; src++ {
		sp := c.Spatial[src]
		if sp.Total == 0 {
			continue
		}
		srcRate := float64(sp.Total) / elapsed
		for dst, frac := range sp.Fractions {
			if frac <= 0 || dst == src {
				continue
			}
			w.Flows = append(w.Flows, Flow{Src: src, Dst: dst, Rate: srcRate * frac})
		}
	}
	if len(w.Flows) == 0 {
		return nil, errors.New("analytic: no traffic flows")
	}
	return w, nil
}

// Uniform builds the classic uniform workload: every source sends at the
// given aggregate per-source rate (messages/ns), uniformly to all others.
func Uniform(procs int, perSourceRate float64, lengths []stats.LengthCount) *Workload {
	w := &Workload{Procs: procs, Lengths: lengths}
	for src := 0; src < procs; src++ {
		for dst := 0; dst < procs; dst++ {
			if dst == src {
				continue
			}
			w.Flows = append(w.Flows, Flow{Src: src, Dst: dst, Rate: perSourceRate / float64(procs-1)})
		}
	}
	return w
}

// Prediction is the model's output.
type Prediction struct {
	// T0 is the flow-weighted zero-load latency (head propagation plus
	// serialization), in ns.
	T0 float64
	// Contention is the flow-weighted total queueing delay, in ns.
	Contention float64
	// Latency = T0 + Contention.
	Latency float64
	// MaxRho is the highest link utilization; at or above 1 the network
	// is analytically saturated and Saturated is set.
	MaxRho    float64
	MeanRho   float64
	Saturated bool
}

// Predict evaluates the model on the given fabric.
func Predict(w *Workload, cfg mesh.Config) (*Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ep := cfg.Fabric().Endpoints(); ep < w.Procs {
		return nil, fmt.Errorf("analytic: %d processors on %d-node fabric", w.Procs, ep)
	}
	if len(w.Lengths) == 0 {
		return nil, errors.New("analytic: no length spectrum")
	}

	// Service-time moments of a worm's residence on one link: a message
	// of F flits streams across a link for about F cycles once granted.
	cycle := float64(cfg.CycleTime)
	var totalCount float64
	var es, es2 float64
	for _, lc := range w.Lengths {
		f := float64(cfg.Flits(lc.Bytes))
		s := f * cycle
		n := float64(lc.Count)
		es += n * s
		es2 += n * s * s
		totalCount += n
	}
	es /= totalCount
	es2 /= totalCount

	// Route every flow once over a scratch network to get link flows.
	net := mesh.New(sim.New(), cfg)
	type linkKey [2]int
	lambda := map[linkKey]float64{}
	paths := make([][][2]int, len(w.Flows))
	for i, f := range w.Flows {
		p := net.Path(f.Src, f.Dst)
		paths[i] = p
		for _, lk := range p {
			lambda[linkKey(lk)] += f.Rate
		}
	}

	// Per-link M/G/1 waiting time (Pollaczek-Khinchine), with the lane
	// count acting as service capacity (approximate: rate divided by
	// lanes).
	lanes := float64(cfg.VirtualChannels)
	wait := map[linkKey]float64{}
	pred := &Prediction{}
	var rhoSum float64
	for lk, l := range lambda {
		rho := l * es / lanes
		if rho > pred.MaxRho {
			pred.MaxRho = rho
		}
		rhoSum += rho
		if rho >= 1 {
			pred.Saturated = true
			wait[lk] = math.Inf(1)
			continue
		}
		wait[lk] = (l / lanes) * es2 / (2 * (1 - rho))
	}
	if len(lambda) > 0 {
		pred.MeanRho = rhoSum / float64(len(lambda))
	}

	// Flow-weighted latency.
	hopTime := cycle * float64(1+cfg.RouterDelay)
	meanFlits := es / cycle
	var rateSum float64
	for i, f := range w.Flows {
		t0 := float64(len(paths[i]))*hopTime + (meanFlits-1)*cycle
		var q float64
		for _, lk := range paths[i] {
			q += wait[linkKey(lk)]
		}
		pred.T0 += f.Rate * t0
		pred.Contention += f.Rate * q
		rateSum += f.Rate
	}
	if rateSum > 0 {
		pred.T0 /= rateSum
		pred.Contention /= rateSum
	}
	pred.Latency = pred.T0 + pred.Contention
	return pred, nil
}

// Scale returns the workload with every flow rate multiplied by factor.
func (w *Workload) Scale(factor float64) *Workload {
	out := &Workload{Procs: w.Procs, Lengths: w.Lengths}
	out.Flows = make([]Flow, len(w.Flows))
	copy(out.Flows, w.Flows)
	for i := range out.Flows {
		out.Flows[i].Rate *= factor
	}
	return out
}

// AggregateRate returns the total message rate (messages/ns).
func (w *Workload) AggregateRate() float64 {
	var sum float64
	for _, f := range w.Flows {
		sum += f.Rate
	}
	return sum
}
