package core

import "commchar/internal/sim"

// RateWindows is the number of equal time windows used for the
// message-generation-rate series.
const RateWindows = 48

// RatePoint is one window of the generation-rate series.
type RatePoint struct {
	Start    sim.Time
	Messages int
	// Rate is messages per microsecond within the window.
	Rate float64
}

// RateOverTime splits the run into equal time windows and returns the
// message generation rate in each — the temporal attribute seen as a time
// series, which exposes the application's phase structure (compute phases
// are silent, communication phases spike).
func (c *Characterization) RateOverTime(windows int) []RatePoint {
	if windows < 1 || c.Elapsed <= 0 {
		return nil
	}
	width := float64(c.Elapsed) / float64(windows)
	if width <= 0 {
		return nil
	}
	out := make([]RatePoint, windows)
	for i := range out {
		out[i].Start = sim.Time(float64(i) * width)
	}
	for _, d := range c.Log {
		w := int(float64(d.Inject) / width)
		if w >= windows {
			w = windows - 1
		}
		out[w].Messages++
	}
	usPerWindow := width / 1000
	for i := range out {
		out[i].Rate = float64(out[i].Messages) / usPerWindow
	}
	return out
}

// BurstRatio is the peak-to-mean ratio of the generation-rate series: 1 for
// perfectly smooth traffic, large for phase-structured traffic.
func (c *Characterization) BurstRatio(windows int) float64 {
	pts := c.RateOverTime(windows)
	if len(pts) == 0 {
		return 0
	}
	var sum, peak float64
	for _, p := range pts {
		sum += p.Rate
		if p.Rate > peak {
			peak = p.Rate
		}
	}
	mean := sum / float64(len(pts))
	if mean == 0 {
		return 0
	}
	return peak / mean
}

// Locality is the hop-distance view of the spatial attribute: how far
// messages travel on the fabric.
type Locality struct {
	MeanHops float64
	// HopCounts[h] is the number of messages that traversed h links
	// (index 0 = node-local traffic).
	HopCounts []int
	// NeighbourFraction is the share of messages delivered within one hop.
	NeighbourFraction float64
}

// AnalyzeLocality computes the hop-distance distribution of the run.
func (c *Characterization) AnalyzeLocality() Locality {
	loc := Locality{MeanHops: c.MeanHops}
	maxHops := 0
	for _, d := range c.Log {
		if d.Hops > maxHops {
			maxHops = d.Hops
		}
	}
	loc.HopCounts = make([]int, maxHops+1)
	near := 0
	for _, d := range c.Log {
		loc.HopCounts[d.Hops]++
		if d.Hops <= 1 {
			near++
		}
	}
	if len(c.Log) > 0 {
		loc.NeighbourFraction = float64(near) / float64(len(c.Log))
	}
	return loc
}

// ReceiverProfile is the destination-side aggregate: how many messages each
// processor receives, and which processor is the machine-wide favorite
// sink (lock homes and collective roots show up here).
type ReceiverProfile struct {
	Counts   []int
	Favorite int
	// FavoriteShare is the favorite's fraction of all messages.
	FavoriteShare float64
}

// AnalyzeReceivers computes the destination-side profile.
func (c *Characterization) AnalyzeReceivers() ReceiverProfile {
	p := ReceiverProfile{Counts: make([]int, c.Procs), Favorite: -1}
	for _, d := range c.Log {
		p.Counts[d.Dst]++
	}
	total := 0
	for dst, n := range p.Counts {
		total += n
		if p.Favorite < 0 || n > p.Counts[p.Favorite] {
			p.Favorite = dst
		}
	}
	if total > 0 && p.Favorite >= 0 {
		p.FavoriteShare = float64(p.Counts[p.Favorite]) / float64(total)
	}
	return p
}
