// Package apps assembles the paper's application suite — five shared-memory
// applications characterized by the dynamic (execution-driven) strategy and
// two message-passing applications characterized by the static
// (trace-driven) strategy — behind one uniform Workload interface that the
// experiment harness drives.
package apps

import (
	"context"
	"fmt"

	"commchar/internal/apps/cholesky"
	"commchar/internal/apps/fft1d"
	"commchar/internal/apps/fft3d"
	"commchar/internal/apps/is"
	"commchar/internal/apps/maxflow"
	"commchar/internal/apps/mg"
	"commchar/internal/apps/nbody"
	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/mp"
	"commchar/internal/sp2"
	"commchar/internal/spasm"
)

// Scale selects a problem-size tier.
type Scale int

const (
	// ScaleSmall is for quick tests.
	ScaleSmall Scale = iota
	// ScaleFull is the benchmark tier used for the paper's experiments.
	ScaleFull
)

// ParseScale parses a -scale flag value: "full" or "small". Anything else
// is a usage error, so a typo never silently runs the full-size problem.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "full":
		return ScaleFull, nil
	case "small":
		return ScaleSmall, nil
	}
	return ScaleFull, cli.Usagef("unknown scale %q (want full or small)", s)
}

// Workload is one application of the suite, ready to characterize.
type Workload struct {
	Name        string
	Strategy    core.Strategy
	Description string
	// Characterize runs the application on procs processors and returns
	// its communication characterization; cancelling ctx stops the
	// simulation.
	Characterize func(ctx context.Context, procs int) (*core.Characterization, error)
}

// smSizes holds the shared-memory problem sizes per scale tier.
type smSizes struct {
	fftPoints          int
	isKeys, isBuckets  int
	cholN              int
	cholDensity        float64
	nbodyN, nbodySteps int
	mfLayers, mfWidth  int
}

func sizesFor(scale Scale) smSizes {
	if scale == ScaleFull {
		return smSizes{
			fftPoints: 16384, isKeys: 65536, isBuckets: 1024,
			cholN: 192, cholDensity: 0.06,
			nbodyN: 256, nbodySteps: 2,
			mfLayers: 10, mfWidth: 12,
		}
	}
	return smSizes{
		fftPoints: 4096, isKeys: 8192, isBuckets: 256,
		cholN: 96, cholDensity: 0.08,
		nbodyN: 128, nbodySteps: 1,
		mfLayers: 6, mfWidth: 8,
	}
}

// RunSharedMemoryOn executes a shared-memory workload by name on a
// caller-supplied machine, so experiments can vary the machine (protocol,
// routing, barrier) and inspect it afterwards (profiles, stats).
func RunSharedMemoryOn(m *spasm.Machine, scale Scale, name string) error {
	sz := sizesFor(scale)
	switch name {
	case "1D-FFT":
		cfg := fft1d.DefaultConfig()
		cfg.Points = sz.fftPoints
		_, err := fft1d.Run(m, cfg)
		return err
	case "IS":
		cfg := is.DefaultConfig()
		cfg.Keys, cfg.MaxKey = sz.isKeys, sz.isBuckets
		_, err := is.Run(m, cfg)
		return err
	case "Cholesky":
		ccfg := cholesky.DefaultConfig()
		ccfg.N, ccfg.Density = sz.cholN, sz.cholDensity
		prob := cholesky.Generate(ccfg)
		_, err := cholesky.Run(m, prob, ccfg.OpTime)
		return err
	case "Nbody":
		cfg := nbody.DefaultConfig()
		cfg.Bodies, cfg.Steps = sz.nbodyN, sz.nbodySteps
		_, err := nbody.Run(m, cfg)
		return err
	case "Maxflow":
		mcfg := maxflow.DefaultConfig()
		mcfg.Layers, mcfg.Width = sz.mfLayers, sz.mfWidth
		g := maxflow.Generate(mcfg)
		_, err := maxflow.Run(m, g, mcfg.OpTime)
		return err
	default:
		return fmt.Errorf("apps: unknown shared-memory workload %q", name)
	}
}

// RunMessagePassingOn executes a message-passing workload by name on a
// caller-supplied world, so the pipeline can build the world itself and
// reuse the recorded trace.
func RunMessagePassingOn(w *mp.World, scale Scale, name string, procs int) error {
	ftN, ftIters := 16, 2
	mgN, mgCycles := 16, 2
	if scale == ScaleFull {
		ftN, ftIters = 32, 3
		mgN, mgCycles = 32, 4
	}
	switch name {
	case "3D-FFT":
		cfg := fft3d.DefaultConfig()
		cfg.NX, cfg.NY, cfg.NZ, cfg.Iterations = ftN, ftN, ftN, ftIters
		_, err := fft3d.Run(w, cfg, procs)
		return err
	case "MG":
		cfg := mg.DefaultConfig()
		cfg.N, cfg.Cycles = mgN, mgCycles
		_, err := mg.Run(w, cfg, procs)
		return err
	default:
		return fmt.Errorf("apps: unknown message-passing workload %q", name)
	}
}

// SharedMemory returns the five shared-memory applications at the scale.
func SharedMemory(scale Scale) []Workload {
	mk := func(name, desc string) Workload {
		return Workload{
			Name:        name,
			Strategy:    core.StrategyDynamic,
			Description: desc,
			Characterize: func(ctx context.Context, procs int) (*core.Characterization, error) {
				return core.CharacterizeSharedMemory(ctx, name, procs, func(m *spasm.Machine) error {
					return RunSharedMemoryOn(m, scale, name)
				})
			},
		}
	}
	return []Workload{
		mk("1D-FFT", "1-D complex FFT; local butterflies around a transpose phase [8]"),
		mk("IS", "integer sort by bucket ranking [8]"),
		mk("Cholesky", "sparse Cholesky factorization with dynamic task queue [17]"),
		mk("Nbody", "gravitational N-body with static body allocation [17]"),
		mk("Maxflow", "Goldberg push-relabel maximum flow [26]"),
	}
}

// MessagePassing returns the two NAS message-passing applications at the
// scale.
func MessagePassing(scale Scale) []Workload {
	mk := func(name, desc string) Workload {
		return Workload{
			Name:        name,
			Strategy:    core.StrategyStatic,
			Description: desc,
			Characterize: func(ctx context.Context, procs int) (*core.Characterization, error) {
				return core.CharacterizeMessagePassing(ctx, name, procs, sp2.Default(), func(w *mp.World) error {
					return RunMessagePassingOn(w, scale, name, procs)
				})
			},
		}
	}
	return []Workload{
		mk("3D-FFT", "NAS FT kernel: 3-D FFT with all-to-all transpose [15]"),
		mk("MG", "NAS MG: multigrid V-cycle Poisson solver [15]"),
	}
}

// Suite returns all seven applications at the scale.
func Suite(scale Scale) []Workload {
	return append(SharedMemory(scale), MessagePassing(scale)...)
}

// ByName finds a workload in the suite.
func ByName(scale Scale, name string) (Workload, error) {
	for _, w := range Suite(scale) {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("apps: unknown workload %q", name)
}
