// Package core implements the paper's contribution: the communication
// characterization methodology. It takes the network log produced by either
// acquisition strategy — dynamic (execution-driven, spasm+ccnuma) or static
// (trace-driven, mp+sp2 replayed through the mesh) — and quantifies the
// three communication attributes:
//
//   - temporal: the message inter-arrival time distribution at each source,
//     fitted by non-linear regression over candidate families (stats);
//   - spatial: the distribution of each source's messages over
//     destinations, classified as uniform / bimodal-uniform / structured;
//   - volume: message counts and the message-length spectrum.
//
// The result is a Characterization: the closed-form description of the
// application's communication workload that the paper proposes feeding into
// analytical and simulation studies of interconnection networks.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"commchar/internal/coll"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
	"commchar/internal/trace"
)

// Strategy names the acquisition path, as in the paper.
type Strategy string

const (
	// StrategyDynamic is execution-driven simulation (SPASM-style).
	StrategyDynamic Strategy = "dynamic"
	// StrategyStatic is trace-driven replay (SP2-style).
	StrategyStatic Strategy = "static"
)

// SourceTemporal is the temporal characterization of one source processor.
type SourceTemporal struct {
	Src     int
	Samples int
	Summary stats.Summary        // of inter-arrival times, in ns
	Fits    []stats.CandidateFit // best-first
}

// Best returns the winning fit, or nil if the source had too few messages.
func (s *SourceTemporal) Best() *stats.CandidateFit {
	if len(s.Fits) == 0 {
		return nil
	}
	return &s.Fits[0]
}

// Characterization is the complete communication characterization of one
// application run.
type Characterization struct {
	Name     string
	Strategy Strategy
	Procs    int

	Messages   int
	TotalBytes int64
	Elapsed    sim.Time

	// Temporal attribute.
	PerSource []SourceTemporal
	Aggregate SourceTemporal // pooled over sources (Src = -1)

	// Spatial attribute.
	Spatial []stats.SpatialDist

	// Volume attribute.
	Volume stats.LengthProfile

	// Network-level metrics of the run (used by the synthetic-traffic
	// validation experiment).
	MeanLatencyNS   float64
	MeanBlockedNS   float64
	MeanHops        float64
	MeanUtilization float64

	// Log retains the raw deliveries for downstream analysis.
	Log []mesh.Delivery

	// Trace is the application-level communication trace, when the
	// strategy records one (static strategy only; nil otherwise). It can
	// be re-replayed offline, e.g. through meshsim's fault injection.
	Trace *trace.Trace

	// Coll is the collective-communication and asynchronicity
	// characterization, present when the trace carries mp's collective
	// tag blocks (static strategy only; nil otherwise).
	Coll *coll.Characterization `json:",omitempty"`
}

// deliveryOrder orders deliveries by injection time, then message ID.
func deliveryOrder(a, b mesh.Delivery) int {
	if c := cmp.Compare(a.Inject, b.Inject); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// minSourceSamples is the fewest inter-arrival samples worth fitting.
const minSourceSamples = 8

// Analyze characterizes a network log. procs is the machine size; elapsed
// the simulated run time; meanUtil the network's mean link utilization.
// The pooled inter-arrival sample is allocated once, at its final size,
// source after source, and stats.SummarizeSources fits each source's
// segment of it and the pooled sample on one worker pool, largest first.
// It sorts each segment in place and counts the pooled sample by merging
// the segments' counts, so no sample is copied and the pooled sample is
// never sorted; each result is bit for bit what stats.SummarizeFit
// returns for its sample.
func Analyze(name string, strategy Strategy, log []mesh.Delivery, procs int, elapsed sim.Time, meanUtil float64) (*Characterization, error) {
	if len(log) == 0 {
		return nil, errors.New("core: empty network log")
	}
	if procs < 2 {
		return nil, fmt.Errorf("core: %d processors", procs)
	}
	// Network.Log already returns (Inject, ID) order, so a simulated log
	// is shared as it is; only a log in another order (one read from an
	// arbitrary file) is cloned and sorted. The capped slice makes any
	// later append to c.Log copy rather than write into the caller's array.
	sorted := log[:len(log):len(log)]
	if !slices.IsSortedFunc(log, deliveryOrder) {
		sorted = slices.Clone(log)
		slices.SortStableFunc(sorted, deliveryOrder)
	}

	c := &Characterization{
		Name:            name,
		Strategy:        strategy,
		Procs:           procs,
		Messages:        len(sorted),
		Elapsed:         elapsed,
		MeanUtilization: meanUtil,
		Log:             sorted,
	}

	// First pass: validate the endpoints and lengths, count each source's deliveries,
	// so that every sample below is allocated once, at its final size,
	// and count each message length.
	perSource := make([]int, procs)
	counts := make([][]int, procs)
	for i := range counts {
		counts[i] = make([]int, procs)
	}
	byLen := map[int]int{}
	var latSum, blkSum, hopSum float64
	for _, d := range sorted {
		if d.Src < 0 || int(d.Src) >= procs || d.Dst < 0 || int(d.Dst) >= procs {
			return nil, fmt.Errorf("core: delivery %d endpoints %d->%d outside %d processors",
				d.ID, d.Src, d.Dst, procs)
		}
		if d.Bytes < 1 {
			return nil, fmt.Errorf("core: delivery %d has length %d", d.ID, d.Bytes)
		}
		perSource[d.Src]++
		counts[d.Src][d.Dst]++
		byLen[d.Bytes]++
		c.TotalBytes += int64(d.Bytes)
		latSum += float64(d.Latency())
		blkSum += float64(d.Blocked)
		hopSum += float64(d.Hops)
	}
	n := float64(len(sorted))
	c.MeanLatencyNS = latSum / n
	c.MeanBlockedNS = blkSum / n
	c.MeanHops = hopSum / n

	// Temporal: per-source inter-arrival fits plus the pooled aggregate,
	// all fitted at once; the pooled sample is the last.
	pooled, off := sourceGaps(sorted, perSource)
	res := stats.SummarizeSources(pooled, off)
	agg := res[procs]
	if agg.Err != nil && len(pooled) >= minSourceSamples {
		return nil, fmt.Errorf("core: aggregate fit: %w", agg.Err)
	}
	c.PerSource = make([]SourceTemporal, procs)
	for src, r := range res[:procs] {
		// A source too sparse, or too degenerate, to fit keeps no fits.
		c.PerSource[src] = SourceTemporal{Src: src, Samples: off[src+1] - off[src], Summary: r.Summary, Fits: r.Fits}
	}
	c.Aggregate = SourceTemporal{Src: -1, Samples: len(pooled), Summary: agg.Summary, Fits: agg.Fits}

	// Spatial and volume.
	c.Spatial = stats.AggregateSpatial(counts)
	c.Volume = stats.AnalyzeLengthCounts(byLen)
	return c, nil
}

// sourceGaps lays out every source's inter-arrival gaps in one pooled
// sample, source after source, each source's in log order: source s's gaps
// are pooled[off[s]:off[s+1]]. perSource holds each source's delivery
// count in log, so the sample is allocated once, at its final size. Zero
// gaps (same-cycle injections) are kept: they are genuine bursts, and the
// fitting layer handles point masses.
func sourceGaps(log []mesh.Delivery, perSource []int) (pooled []float64, off []int) {
	off = make([]int, len(perSource)+1)
	for s, k := range perSource {
		off[s+1] = off[s] + max(k-1, 0)
	}
	pooled = make([]float64, off[len(perSource)])
	at := slices.Clone(off[:len(perSource)]) // where each source's next gap goes
	last := make([]sim.Time, len(perSource))
	seen := make([]bool, len(perSource))
	for _, d := range log {
		if seen[d.Src] {
			pooled[at[d.Src]] = float64(d.Inject - last[d.Src])
			at[d.Src]++
		}
		last[d.Src], seen[d.Src] = d.Inject, true
	}
	return pooled, off
}

// BestAggregate returns the aggregate winning fit, or nil.
func (c *Characterization) BestAggregate() *stats.CandidateFit {
	return c.Aggregate.Best()
}

// DominantSpatial returns the most common spatial pattern across sources
// and the number of sources exhibiting it. Ties break toward the smaller
// pattern value, so repeated analyses of the same log agree byte for byte.
func (c *Characterization) DominantSpatial() (stats.SpatialPattern, int) {
	counts := map[stats.SpatialPattern]int{}
	for _, s := range c.Spatial {
		if s.Total > 0 {
			counts[s.Pattern]++
		}
	}
	var best stats.SpatialPattern
	bestN := -1
	for p, n := range counts {
		if n > bestN || (n == bestN && p < best) {
			best, bestN = p, n
		}
	}
	if bestN < 0 {
		return stats.SpatialGeneral, 0
	}
	return best, bestN
}

// AggregateGaps recomputes the pooled per-source inter-arrival sample from
// the log: the raw data behind the aggregate temporal fit, in source-major
// order.
func (c *Characterization) AggregateGaps() []float64 {
	perSource := make([]int, c.Procs)
	for _, d := range c.Log {
		perSource[d.Src]++
	}
	pooled, _ := sourceGaps(c.Log, perSource)
	return pooled
}
