package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func shortRun(t *testing.T, workload string, seed uint64, traced bool) *result {
	t.Helper()
	res, err := runBench(options{workload: workload, seed: seed, seconds: 1, trace: traced, short: true, build: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestShortRunsEmitEveryMetric runs every workload on its tiny specs,
// untraced and traced, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json declares, each with its unit and a
// finite value.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := shortRun(t, w, defaultSeed, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want, table := decl.EndToEnd, endToEnd
			if traced {
				want, table = decl.PerLayer, perLayer
			}
			if len(res.Metrics) != len(want) || len(table) != len(want) {
				t.Errorf("%s traced=%t: %d metrics reported, %d listed, %d declared", w, traced, len(res.Metrics), len(table), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w, traced, d.Name)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s traced=%t: metric %s has unit %q, declared %q", w, traced, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%t: metric %s = %v", w, traced, d.Name, m.Value)
				}
			}
			if traced && res.Metrics["trace.coverage"].Value <= 0.5 {
				t.Errorf("%s: spans cover only %v of the traced op wall", w, res.Metrics["trace.coverage"].Value)
			}
		}
	}
}

// TestOtherSeedStillChecked runs the regeneration workload at a seed the
// oracle does not pin: its ops must still pass their checks.
func TestOtherSeedStillChecked(t *testing.T) {
	res := shortRun(t, "synth-warm", 7, true)
	if !res.Correct {
		t.Fatalf("seed 7: %d of %d ops failed", res.Failed, res.Attempted)
	}
	if res.Metrics["workload.synth_msgs"].Value <= 0 {
		t.Fatal("seed 7: no synthetic messages counted")
	}
}

// TestWrongReferenceFailsEveryOp corrupts a pinned report digest and
// expects every op of that spec to be reported as failed.
func TestWrongReferenceFailsEveryOp(t *testing.T) {
	p, err := planFor("cold-fit", true)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	key := p.cold[0].String()
	ref := orc.Specs[key]
	ref.Report = "0"
	orc.Specs[key] = ref
	b := &bench{plan: p, seed: defaultSeed, oracle: orc, seen: map[uint64]synthRef{}}
	res, err := b.run(options{workload: "cold-fit", seed: defaultSeed, seconds: 1, short: true, build: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("correct=%t, %d of %d ops failed; want every op failed", res.Correct, res.Failed, res.Attempted)
	}
	if res.Metrics["op_ok_frac"].Value != 0 {
		t.Fatalf("op_ok_frac = %v, want 0", res.Metrics["op_ok_frac"].Value)
	}
}
