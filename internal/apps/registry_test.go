package apps

import (
	"context"
	"testing"

	"commchar/internal/cli"
	"commchar/internal/core"
)

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
		if w.Name == "" || w.Description == "" || w.Characterize == nil {
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
			c, err := w.Characterize(context.Background(), procs)
			if err != nil {
				t.Fatal(err)
			}
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
