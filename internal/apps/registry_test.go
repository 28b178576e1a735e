package apps

import (
	"context"
	"testing"

	"commchar/internal/cli"
	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/sim"
	"commchar/internal/sp2"
	"commchar/internal/spasm"
)

// characterize runs a suite application on the standard machine through
// the core stages that the engine's acquire, log and analyze stages call.
func characterize(t *testing.T, w Workload, procs int) *core.Characterization {
	t.Helper()
	ctx := context.Background()
	var raw *core.RawRun
	var err error
	if w.Strategy == core.StrategyDynamic {
		raw, err = core.AcquireSharedMemoryOnContext(ctx, spasm.NewDefault(procs), func(m *spasm.Machine) error {
			return RunSharedMemoryOn(m, ScaleSmall, w.Name)
		})
	} else {
		tr, aerr := core.AcquireMessagePassingWith(procs, mp.AlgLinear, func(world *mp.World) error {
			return RunMessagePassingOn(world, ScaleSmall, w.Name, procs)
		})
		if aerr != nil {
			t.Fatal(aerr)
		}
		raw, err = core.ReplayTraceContext(ctx, tr, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(procs)...), sp2.Default(), nil, sim.Watchdog{})
	}
	if err != nil {
		t.Fatal(err)
	}
	c, err := raw.Characterize(w.Name, w.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSuiteComposition(t *testing.T) {
	suite := Suite(ScaleSmall)
	if len(suite) != 7 {
		t.Fatalf("suite has %d workloads, want 7", len(suite))
	}
	var dyn, stat int
	for _, w := range suite {
		switch w.Strategy {
		case core.StrategyDynamic:
			dyn++
		case core.StrategyStatic:
			stat++
		}
		if w.Name == "" || w.Description == "" {
			t.Fatalf("incomplete workload %+v", w)
		}
	}
	if dyn != 5 || stat != 2 {
		t.Fatalf("strategy split %d/%d, want 5/2 as in the paper", dyn, stat)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName(ScaleSmall, "IS"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName(ScaleSmall, "nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestEveryWorkloadCharacterizesSmall(t *testing.T) {
	for _, w := range Suite(ScaleSmall) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			procs := 8
			c := characterize(t, w, procs)
			if c.Messages == 0 {
				t.Fatal("no messages")
			}
			if c.Strategy != w.Strategy {
				t.Fatalf("strategy %s, want %s", c.Strategy, w.Strategy)
			}
			if c.BestAggregate() == nil {
				t.Fatal("no aggregate temporal fit")
			}
			if c.Volume.Total != c.Messages {
				t.Fatalf("volume total %d != messages %d", c.Volume.Total, c.Messages)
			}
			// Every source that sent anything has a spatial record.
			active := 0
			for _, s := range c.Spatial {
				if s.Total > 0 {
					active++
				}
			}
			if active < procs/2 {
				t.Fatalf("only %d active sources", active)
			}
		})
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"full": ScaleFull, "small": ScaleSmall} {
		if got, err := ParseScale(in); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "smal", "Small", "full "} {
		_, err := ParseScale(in)
		if cli.ExitCode(err) != 2 {
			t.Errorf("ParseScale(%q) = %v, want a usage error (exit 2)", in, err)
		}
	}
}
