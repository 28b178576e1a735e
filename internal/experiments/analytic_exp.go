package experiments

import (
	"fmt"
	"io"

	"commchar/internal/analytic"
	"commchar/internal/mesh"
	"commchar/internal/report"
	"commchar/internal/sim"
	"commchar/internal/stats"
	"commchar/internal/workload"
)

// FigureAnalyticModel validates the M/G/1 analytic network model against
// the simulator, under the uniform assumption at several loads and under
// the fitted 1D-FFT workload — demonstrating the paper's proposed use of
// the characterization: realistic inputs for analytical ICN models.
func (r *Runner) FigureAnalyticModel(w io.Writer, procs int) error {
	cfg := mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(procs)...)
	lengths := []stats.LengthCount{{Bytes: 8, Count: 3}, {Bytes: 40, Count: 2}}

	t := &report.Table{
		Title:   fmt.Sprintf("Figure: analytic M/G/1 model vs simulation (%d processors)", procs),
		Columns: []string{"Workload", "MaxRho", "Analytic(ns)", "Simulated(ns)", "RelErr"},
	}

	// Uniform Poisson at three loads.
	for _, meanGap := range []float64{12000, 6000, 3000} {
		aw := analytic.Uniform(procs, 1/meanGap, lengths)
		pred, err := analytic.Predict(aw, cfg)
		if err != nil {
			return err
		}
		g := workload.UniformPoisson(procs, meanGap, lengths)
		m, err := workload.Simulate(g, cfg, sim.Time(4*sim.Millisecond), 5)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("uniform, gap %.0fus", meanGap/1000),
			fmt.Sprintf("%.3f", pred.MaxRho),
			fmt.Sprintf("%.0f", pred.Latency),
			fmt.Sprintf("%.0f", m.MeanLatencyNS),
			fmt.Sprintf("%.3f", relErr(pred.Latency, m.MeanLatencyNS)))
	}

	// The fitted 1D-FFT workload: analytic model fed by the measured
	// characterization, simulation fed by the synthetic generator.
	c, err := r.characterize("1D-FFT", procs)
	if err != nil {
		return err
	}
	aw, err := analytic.FromCharacterization(c)
	if err != nil {
		return err
	}
	pred, err := analytic.Predict(aw, cfg)
	if err != nil {
		return err
	}
	gen, err := workload.FromCharacterization(c)
	if err != nil {
		return err
	}
	m, err := workload.Simulate(gen, cfg, c.Elapsed, 5)
	if err != nil {
		return err
	}
	t.AddRow("1D-FFT (fitted model)",
		fmt.Sprintf("%.3f", pred.MaxRho),
		fmt.Sprintf("%.0f", pred.Latency),
		fmt.Sprintf("%.0f", m.MeanLatencyNS),
		fmt.Sprintf("%.3f", relErr(pred.Latency, m.MeanLatencyNS)))

	t.Render(w)
	return nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	e := (got - want) / want
	if e < 0 {
		return -e
	}
	return e
}
