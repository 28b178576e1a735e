package experiments

import (
	"fmt"
	"io"

	"commchar/internal/ccnuma"
	"commchar/internal/mesh"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/stats"
)

// Table6 prints per-phase inter-arrival fits for the message-passing
// applications — the paper's observation that phase-structured MPI codes
// need per-phase rather than whole-run temporal models.
func (r *Runner) Table6(w io.Writer, procs int) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Table 6: per-phase inter-arrival fits, message passing (%d processors)", procs),
		Columns: []string{"Application", "Phase", "Msgs", "Span(ms)", "MeanGap(us)", "CV", "BestFit", "R2"},
	}
	for _, name := range mpNames {
		c, err := r.characterize(name, procs)
		if err != nil {
			return err
		}
		bursts := c.Bursts(0)
		if len(bursts) > 8 {
			// Fine-grained burst structure (one segment per collective
			// round): the informative model is the phase-level cadence —
			// the distribution of gaps between burst starts.
			var msgs int
			starts := make([]float64, 0, len(bursts))
			for _, b := range bursts {
				msgs += b.Messages
				starts = append(starts, float64(b.Start))
			}
			gaps := make([]float64, 0, len(starts)-1)
			for i := 1; i < len(starts); i++ {
				gaps = append(gaps, starts[i]-starts[i-1])
			}
			fitName, r2 := "-", "-"
			sum, fits, err := stats.SummarizeFit(gaps)
			if err == nil {
				fitName = fits[0].Dist.Name()
				r2 = fmt.Sprintf("%.4f", fits[0].R2)
			}
			t.AddRow(c.Name, fmt.Sprintf("%d bursts", len(bursts)),
				fmt.Sprintf("%d", msgs), "-",
				fmt.Sprintf("%.2f", sum.Mean/1000),
				fmt.Sprintf("%.2f", sum.CV),
				fitName+" (burst cadence)", r2)
			continue
		}
		phases, err := c.SplitPhases(0, 0)
		if err != nil {
			// A code without detectable phases still gets its whole-run row.
			name2, _, r2 := report.FitRow(c.BestAggregate())
			t.AddRow(c.Name, "whole-run", fmt.Sprintf("%d", c.Messages), "-",
				fmt.Sprintf("%.2f", c.Aggregate.Summary.Mean/1000),
				fmt.Sprintf("%.2f", c.Aggregate.Summary.CV), name2, r2)
			continue
		}
		for i, ph := range phases {
			fitName, _, r2 := report.FitRow(ph.C.BestAggregate())
			label := c.Name
			if i > 0 {
				label = ""
			}
			t.AddRow(label, fmt.Sprintf("%d", ph.Index),
				fmt.Sprintf("%d", ph.C.Messages),
				fmt.Sprintf("%.3f", float64(ph.End-ph.Start)/1e6),
				fmt.Sprintf("%.2f", ph.C.Aggregate.Summary.Mean/1000),
				fmt.Sprintf("%.2f", ph.C.Aggregate.Summary.CV),
				fitName, r2)
		}
	}
	t.Render(w)
	return nil
}

// Table7 prints the SPASM-style execution profiles of the shared-memory
// suite: where each application's time goes (compute, memory stalls,
// synchronization stalls), averaged over processors. The whole suite runs
// concurrently through the pipeline; profiles ride along on the artifacts.
func (r *Runner) Table7(w io.Writer, procs int) error {
	specs := make([]pipeline.RunSpec, len(sharedNames))
	for i, name := range sharedNames {
		specs[i] = r.spec(name, procs)
	}
	arts, err := r.artifacts(specs...)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Table 7: execution-time profiles, shared memory (%d processors)", procs),
		Columns: []string{"Application", "Makespan(ms)", "Compute%", "Memory%", "Sync%"},
	}
	for i, name := range sharedNames {
		var comp, mem, syn, end float64
		for _, pr := range arts[i].Profiles {
			comp += float64(pr.Compute)
			mem += float64(pr.Memory)
			syn += float64(pr.Sync)
			end += float64(pr.End)
		}
		if end == 0 {
			continue
		}
		t.AddRow(name,
			fmt.Sprintf("%.3f", float64(arts[i].C.Elapsed)/1e6),
			fmt.Sprintf("%.1f", 100*comp/end),
			fmt.Sprintf("%.1f", 100*mem/end),
			fmt.Sprintf("%.1f", 100*syn/end))
	}
	t.Render(w)
	return nil
}

// AblationProtocol compares MSI and MESI on 1D-FFT: the Exclusive state
// removes upgrade traffic for read-then-write private data, shrinking the
// offered workload itself. Both variants run concurrently through the
// pipeline; coherence statistics ride along on the artifacts.
func (r *Runner) AblationProtocol(w io.Writer, procs int) error {
	protocols := []ccnuma.Protocol{ccnuma.MSI, ccnuma.MESI}
	specs := make([]pipeline.RunSpec, len(protocols))
	for i, pr := range protocols {
		specs[i] = r.spec("1D-FFT", procs)
		specs[i].Protocol = pr
	}
	arts, err := r.artifacts(specs...)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: coherence protocol effect on 1D-FFT (%d processors)", procs),
		Columns: []string{"Protocol", "Messages", "Upgrades", "SilentUpgr", "Makespan(ms)", "MeanGap(us)"},
	}
	for i, pr := range protocols {
		c := arts[i].C
		var st ccnuma.Stats
		if arts[i].MemStats != nil {
			st = *arts[i].MemStats
		}
		t.AddRow(pr.String(),
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%d", st.Upgrades),
			fmt.Sprintf("%d", st.SilentUpgrades),
			fmt.Sprintf("%.3f", float64(c.Elapsed)/1e6),
			fmt.Sprintf("%.2f", c.Aggregate.Summary.Mean/1000))
	}
	t.Render(w)
	return nil
}

// AblationRouting compares deterministic XY with west-first minimal
// adaptive routing under IS's traffic. Both variants run concurrently
// through the pipeline.
func (r *Runner) AblationRouting(w io.Writer, procs int) error {
	algs := []mesh.RoutingAlgorithm{mesh.RoutingDimensionOrder, mesh.RoutingWestFirst}
	specs := make([]pipeline.RunSpec, len(algs))
	for i, alg := range algs {
		specs[i] = r.spec("IS", procs)
		specs[i].Routing = alg
	}
	arts, err := r.artifacts(specs...)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: routing algorithm effect on IS (%d processors)", procs),
		Columns: []string{"Routing", "Messages", "MeanLatency(ns)", "MeanBlocked(ns)", "Makespan(ms)"},
	}
	for i, alg := range algs {
		c := arts[i].C
		t.AddRow(alg.String(),
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%.0f", c.MeanLatencyNS),
			fmt.Sprintf("%.0f", c.MeanBlockedNS),
			fmt.Sprintf("%.3f", float64(c.Elapsed)/1e6))
	}
	t.Render(w)
	return nil
}
