package experiments

import (
	"fmt"
	"io"

	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/sim"
	"commchar/internal/spasm"
	"commchar/internal/workload"
)

// Table5 prints the locality and burstiness view of the suite: hop-distance
// distribution, nearest-neighbour fraction, burst ratio, and the
// machine-wide favorite receiver.
func (r *Runner) Table5(w io.Writer, procs int) error {
	cs, err := r.characterizeAll(append(append([]string{}, sharedNames...), mpNames...), procs)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Table 5: locality and burstiness (%d processors)", procs),
		Columns: []string{"Application", "MeanHops", "NeighbourFrac", "BurstRatio", "FavoriteRecv", "FavShare"},
	}
	for _, c := range cs {
		loc := c.AnalyzeLocality()
		rp := c.AnalyzeReceivers()
		t.AddRow(c.Name,
			fmt.Sprintf("%.2f", loc.MeanHops),
			fmt.Sprintf("%.3f", loc.NeighbourFraction),
			fmt.Sprintf("%.1f", c.BurstRatio(core.RateWindows)),
			fmt.Sprintf("p%d", rp.Favorite),
			fmt.Sprintf("%.3f", rp.FavoriteShare))
	}
	t.Render(w)
	return nil
}

// FigureRateOverTime renders the generation-rate series for a contrasting
// pair: a phase-structured code (1D-FFT) and a dynamic one (Cholesky).
func (r *Runner) FigureRateOverTime(w io.Writer, procs int) error {
	for _, name := range []string{"1D-FFT", "Cholesky"} {
		c, err := r.characterize(name, procs)
		if err != nil {
			return err
		}
		report.RateFigure(w, c, 24, 40)
		fmt.Fprintln(w)
	}
	return nil
}

// FigureLatencyLoad reproduces the classic interconnection-network design
// curve — mean latency versus offered load — under two workload models at
// matched aggregate rate: the literature's uniform-Poisson assumption and
// the application-derived model fitted from 1D-FFT. The application
// traffic's bursts and hot spots cost latency the uniform assumption never
// predicts: the paper's core motivation.
func (r *Runner) FigureLatencyLoad(w io.Writer, procs int) error {
	c, err := r.characterize("1D-FFT", procs)
	if err != nil {
		return err
	}
	appGen, err := workload.FromCharacterization(c)
	if err != nil {
		return err
	}
	// Matched uniform baseline: same per-source mean gap and length mix.
	meanGap := c.Aggregate.Summary.Mean
	uniGen := workload.UniformPoisson(procs, meanGap, c.Volume.Distinct)

	const until = sim.Time(2 * sim.Millisecond)
	cfg := mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(procs)...)

	t := &report.Table{
		Title: fmt.Sprintf("Figure: latency vs offered load, uniform assumption vs fitted 1D-FFT model (%d processors)",
			procs),
		Columns: []string{"LoadFactor", "Workload", "Rate(msg/us)", "MeanLatency(ns)", "MeanBlocked(ns)", "Util"},
	}
	for _, f := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		u, err := workload.Simulate(uniGen.Scaled(f), cfg, until, 11)
		if err != nil {
			return err
		}
		a, err := workload.Simulate(appGen.Scaled(f), cfg, until, 11)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%.1f", f), "uniform",
			fmt.Sprintf("%.3f", u.MessageRate),
			fmt.Sprintf("%.0f", u.MeanLatencyNS),
			fmt.Sprintf("%.0f", u.MeanBlockedNS),
			fmt.Sprintf("%.4f", u.MeanUtilization))
		t.AddRow("", "1D-FFT model",
			fmt.Sprintf("%.3f", a.MessageRate),
			fmt.Sprintf("%.0f", a.MeanLatencyNS),
			fmt.Sprintf("%.0f", a.MeanBlockedNS),
			fmt.Sprintf("%.4f", a.MeanUtilization))
	}
	t.Render(w)
	return nil
}

// AblationBarrier compares the linear and tree barrier implementations on
// the barrier-heavy Nbody code: the synchronization algorithm reshapes the
// spatial attribute (p0's receiver share) without changing the computation.
// Both variants run concurrently through the pipeline.
func (r *Runner) AblationBarrier(w io.Writer, procs int) error {
	kinds := []spasm.BarrierKind{spasm.BarrierLinear, spasm.BarrierTree}
	labels := []string{"linear (root p0)", "binary tree"}
	specs := make([]pipeline.RunSpec, len(kinds))
	for i, kind := range kinds {
		specs[i] = r.spec("Nbody", procs)
		specs[i].Barrier = kind
	}
	arts, err := r.artifacts(specs...)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: barrier algorithm effect on Nbody (%d processors)", procs),
		Columns: []string{"Barrier", "Messages", "Makespan(ms)", "p0RecvShare", "MeanLatency(ns)"},
	}
	for i, label := range labels {
		c := arts[i].C
		rp := c.AnalyzeReceivers()
		t.AddRow(label,
			fmt.Sprintf("%d", c.Messages),
			fmt.Sprintf("%.3f", float64(c.Elapsed)/1e6),
			fmt.Sprintf("%.3f", float64(rp.Counts[0])/float64(c.Messages)),
			fmt.Sprintf("%.0f", c.MeanLatencyNS))
	}
	t.Render(w)
	return nil
}

// AblationTopology drives identical uniform traffic through every fabric
// family sized for 16 endpoints — 2-D mesh, torus, hypercube, fat tree,
// dragonfly — comparing distance and latency: the topology studies
// ([2], [4]) the characterization methodology feeds.
func (r *Runner) AblationTopology(w io.Writer) error {
	const nodes = 16
	configs := []struct {
		label string
		cfg   mesh.Config
	}{
		{"4x4 mesh", mesh.DefaultConfig(mesh.MeshTopology, 4, 4)},
		{"4x4 torus (2 VCs)", mesh.DefaultConfig(mesh.TorusTopology, 4, 4)},
		{"4-cube", mesh.DefaultConfig(mesh.HypercubeTopology, 4)},
		{"fat tree 4:2", mesh.DefaultConfig(mesh.FatTreeTopology, 4, 2)},
		{"dragonfly a4h1 (2 VCs)", mesh.DefaultConfig(mesh.DragonflyTopology, 4, 1)},
	}
	t := &report.Table{
		Title:   "Ablation: topology under identical uniform traffic (16 nodes)",
		Columns: []string{"Topology", "Messages", "MeanHops", "MeanLatency(ns)", "MeanBlocked(ns)"},
	}
	for _, tc := range configs {
		s := sim.New()
		net := mesh.New(s, tc.cfg)
		net.DiscardLog()
		st := sim.NewStream(0x70B0)
		for src := 0; src < nodes; src++ {
			tm := sim.Time(0)
			for i := 0; i < 500; i++ {
				tm += sim.Time(st.Exponential(1500)) + 1
				dst := st.IntN(nodes - 1)
				if dst >= src {
					dst++
				}
				net.Inject(mesh.Message{
					Src: src, Dst: dst, Bytes: 40, Inject: tm,
				}, nil)
			}
		}
		if err := s.Run(); err != nil {
			return err
		}
		m := workload.MeasureTotals(net.Totals(), s.Now(), net.MeanUtilization())
		t.AddRow(tc.label,
			fmt.Sprintf("%d", m.Messages),
			fmt.Sprintf("%.2f", m.MeanHops),
			fmt.Sprintf("%.0f", m.MeanLatencyNS),
			fmt.Sprintf("%.0f", m.MeanBlockedNS))
	}
	t.Render(w)
	return nil
}
