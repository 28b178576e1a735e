// Package report renders characterizations as plain-text tables and
// figures: the reproduction's equivalent of the paper's tables
// (inter-arrival fits per application) and figures (inter-arrival
// histograms with fitted CDFs, spatial "fraction of messages from pX"
// bar charts, and message-volume distributions).
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/stats"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = pad(cell, widths[i])
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bars renders a horizontal bar chart: one labeled bar per value, scaled to
// width characters at the maximum value.
func Bars(w io.Writer, title string, labels []string, values []float64, width int) {
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, v := range values {
		n := 0
		if max > 0 {
			n = int(math.Round(float64(width) * v / max))
		}
		fmt.Fprintf(w, "  %s |%s %.4f\n", pad(labels[i], labelW), strings.Repeat("#", n), v)
	}
}

// CDFOverlay renders the empirical CDF of the sample against the fitted
// distribution at evenly spaced quantiles — the textual form of the paper's
// "measured vs. fitted" inter-arrival figures.
func CDFOverlay(w io.Writer, title string, samples []float64, d stats.Distribution, points, width int) {
	if len(samples) == 0 || points < 2 {
		return
	}
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	xs, ys := stats.NewCounts(samples).Points(points)
	fmt.Fprintf(w, "  %-14s %-9s %-9s  (E = empirical, + = fitted, * = both)\n", "x (ns)", "F_emp", "F_fit")
	for i := range xs {
		fe, ff := ys[i], d.CDF(xs[i])
		pe := int(math.Round(float64(width) * fe))
		pf := int(math.Round(float64(width) * ff))
		row := make([]byte, width+1)
		for j := range row {
			row[j] = ' '
		}
		put := func(p int, c byte) {
			if p < 0 {
				p = 0
			}
			if p > width {
				p = width
			}
			if row[p] != ' ' && row[p] != c {
				row[p] = '*'
			} else {
				row[p] = c
			}
		}
		put(pe, 'E')
		put(pf, '+')
		fmt.Fprintf(w, "  %-14.4g %-9.4f %-9.4f |%s|\n", xs[i], fe, ff, string(row))
	}
}

// SpatialFigure renders the paper's per-source spatial figure: "fraction of
// messages sent by processor src to others in the system".
func SpatialFigure(w io.Writer, c *core.Characterization, src int, width int) {
	sd := c.Spatial[src]
	labels := make([]string, c.Procs)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%d", i)
	}
	title := fmt.Sprintf("Message Distribution for p%d (%d procs) — pattern: %s",
		src, c.Procs, sd.Pattern)
	Bars(w, title, labels, sd.Fractions, width)
}

// VolumeFigure renders the message-length spectrum.
func VolumeFigure(w io.Writer, c *core.Characterization, width int) {
	labels := make([]string, len(c.Volume.Distinct))
	values := make([]float64, len(c.Volume.Distinct))
	for i, lc := range c.Volume.Distinct {
		labels[i] = fmt.Sprintf("%dB", lc.Bytes)
		values[i] = float64(lc.Count) / float64(c.Volume.Total)
	}
	Bars(w, fmt.Sprintf("Message Volume Distribution — %s (mean %.1fB, %d msgs)",
		c.Name, c.Volume.Mean, c.Volume.Total), labels, values, width)
}

// RateFigure renders the message-generation-rate time series: the temporal
// attribute as the paper's "message generation frequency", exposing phase
// structure.
func RateFigure(w io.Writer, c *core.Characterization, windows, width int) {
	pts := c.RateOverTime(windows)
	if len(pts) == 0 {
		return
	}
	var max float64
	for _, p := range pts {
		if p.Rate > max {
			max = p.Rate
		}
	}
	fmt.Fprintf(w, "Message generation rate over time — %s (peak %.2f msg/us, burst ratio %.1f)\n",
		c.Name, max, c.BurstRatio(windows))
	for _, p := range pts {
		n := 0
		if max > 0 {
			n = int(math.Round(float64(width) * p.Rate / max))
		}
		fmt.Fprintf(w, "  t=%8.1fus |%s %.2f\n", float64(p.Start)/1000, strings.Repeat("#", n), p.Rate)
	}
}

// FitRow formats a fitted family for a table: name, parameters, R².
func FitRow(f *stats.CandidateFit) (name, params, r2 string) {
	if f == nil {
		return "-", "-", "-"
	}
	return f.Dist.Name(), f.Dist.String(), fmt.Sprintf("%.4f", f.R2)
}

// TemporalTable builds the paper's headline table: one row per application
// with the winning inter-arrival family, its parameters, R², KS, and the
// sample statistics.
func TemporalTable(title string, cs []*core.Characterization) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"Application", "Strategy", "Msgs", "MeanGap(us)", "CV", "BestFit", "Parameters", "R2", "KS"},
	}
	for _, c := range cs {
		best := c.BestAggregate()
		name, params, r2 := FitRow(best)
		ks := "-"
		if best != nil {
			ks = fmt.Sprintf("%.4f", best.KS)
		}
		t.AddRow(
			c.Name, string(c.Strategy),
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%.2f", c.Aggregate.Summary.Mean/1000),
			fmt.Sprintf("%.2f", c.Aggregate.Summary.CV),
			name, params, r2, ks,
		)
	}
	return t
}

// SpatialTable summarizes every application's dominant spatial pattern.
func SpatialTable(title string, cs []*core.Characterization) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"Application", "DominantPattern", "Sources", "MeanEntropy", "MeanFavFrac"},
	}
	for _, c := range cs {
		pattern, n := c.DominantSpatial()
		var entSum, favSum float64
		var active int
		for _, s := range c.Spatial {
			if s.Total == 0 {
				continue
			}
			active++
			entSum += s.Entropy
			favSum += s.FavoriteFraction
		}
		ent, fav := 0.0, 0.0
		if active > 0 {
			ent, fav = entSum/float64(active), favSum/float64(active)
		}
		t.AddRow(c.Name, pattern.String(), fmt.Sprintf("%d/%d", n, active),
			fmt.Sprintf("%.3f", ent), fmt.Sprintf("%.3f", fav))
	}
	return t
}

// VolumeTable summarizes the volume attribute across applications.
func VolumeTable(title string, cs []*core.Characterization) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"Application", "Msgs", "TotalKB", "MeanBytes", "DistinctLens", "Top", "Bimodal"},
	}
	for _, c := range cs {
		top := "-"
		if len(c.Volume.Distinct) > 0 {
			lc := c.Volume.Distinct[0]
			top = fmt.Sprintf("%dB x%d", lc.Bytes, lc.Count)
		}
		t.AddRow(c.Name,
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%.1f", float64(c.TotalBytes)/1024),
			fmt.Sprintf("%.1f", c.Volume.Mean),
			fmt.Sprintf("%d", len(c.Volume.Distinct)),
			top,
			fmt.Sprintf("%v", c.Volume.Bimodal),
		)
	}
	return t
}

// Render writes the complete characterization report for one application:
// summary, per-source temporal fits, spatial figures for p0/p1, and the
// volume spectrum.
func Render(w io.Writer, c *core.Characterization) {
	fmt.Fprintf(w, "=== %s (%s strategy, %d processors) ===\n", c.Name, c.Strategy, c.Procs)
	fmt.Fprintf(w, "messages: %d   bytes: %d   simulated time: %.3f ms\n",
		c.Messages, c.TotalBytes, float64(c.Elapsed)/1e6)
	fmt.Fprintf(w, "network: mean latency %.0f ns, mean blocked %.0f ns, mean hops %.2f, mean link utilization %.4f\n\n",
		c.MeanLatencyNS, c.MeanBlockedNS, c.MeanHops, c.MeanUtilization)

	tt := &Table{
		Title:   "Inter-arrival time fits per source",
		Columns: []string{"Source", "Samples", "Mean(us)", "CV", "BestFit", "R2"},
	}
	for _, s := range c.PerSource {
		name, _, r2 := FitRow(s.Best())
		tt.AddRow(fmt.Sprintf("p%d", s.Src), fmt.Sprintf("%d", s.Samples),
			fmt.Sprintf("%.2f", s.Summary.Mean/1000), fmt.Sprintf("%.2f", s.Summary.CV), name, r2)
	}
	name, params, r2 := FitRow(c.BestAggregate())
	tt.AddRow("all", fmt.Sprintf("%d", c.Aggregate.Samples),
		fmt.Sprintf("%.2f", c.Aggregate.Summary.Mean/1000),
		fmt.Sprintf("%.2f", c.Aggregate.Summary.CV), name, r2)
	tt.Render(w)
	fmt.Fprintf(w, "  aggregate model: %s\n\n", params)

	for _, src := range []int{0, 1} {
		if src < len(c.Spatial) {
			SpatialFigure(w, c, src, 40)
			fmt.Fprintln(w)
		}
	}
	VolumeFigure(w, c, 40)

	if c.Coll != nil {
		fmt.Fprintln(w)
		Collectives(w, c.Coll)
	}
}

// FaultSummary renders the fault-injection outcome of a mesh run: how much
// of the traffic was touched by which fault class, the retransmission
// volume, and the structured per-message failures. It prints nothing for a
// clean log, so callers can emit it unconditionally.
func FaultSummary(w io.Writer, log []mesh.Delivery, failures []error) {
	flagNames := []struct {
		bit  mesh.FaultFlags
		name string
	}{
		{mesh.FaultDropped, "dropped"},
		{mesh.FaultCorrupted, "corrupted"},
		{mesh.FaultLinkDown, "link down"},
		{mesh.FaultSlowed, "slowed"},
		{mesh.FaultRerouted, "rerouted"},
		{mesh.FaultPartitioned, "partitioned"},
	}
	counts := make([]int, len(flagNames))
	var faulted, failed, retries int
	for _, d := range log {
		retries += int(d.Retries)
		if d.Status != mesh.StatusDelivered {
			failed++
		}
		if d.Faults == 0 {
			continue
		}
		faulted++
		for i, f := range flagNames {
			if d.Faults&f.bit != 0 {
				counts[i]++
			}
		}
	}
	if faulted == 0 && failed == 0 && len(failures) == 0 {
		return
	}
	fmt.Fprintf(w, "faulted msgs  : %d of %d (%d failed, %d retransmissions)\n",
		faulted, len(log), failed, retries)
	for i, f := range flagNames {
		if counts[i] > 0 {
			fmt.Fprintf(w, "  %-11s : %d\n", f.name, counts[i])
		}
	}
	for _, err := range failures {
		fmt.Fprintf(w, "  failure     : %v\n", err)
	}
}
