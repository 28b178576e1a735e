package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/pipeline"
	"commchar/internal/workload"
)

// TestZeroLengthLogIsAnError runs synthgen on a delivery log where every
// 7th row has length 0: the characterization names the first such
// delivery and the run fails cleanly, instead of the regenerated traffic
// injecting a zero-length message and panicking.
func TestZeroLengthLogIsAnError(t *testing.T) {
	var log strings.Builder
	log.WriteString("id,src,dst,bytes,inject_ns,end_ns,latency_ns,blocked_ns,hops,retries,faults,status\n")
	for i := range 400 {
		length := 64 + 8*(i%5)
		if i%7 == 6 {
			length = 0
		}
		inject := 2000 * i
		fmt.Fprintf(&log, "%d,%d,%d,%d,%d,%d,500,0,1,0,0,0\n", i+1, i%4, (i+1)%4, length, inject, inject+500)
	}
	path := filepath.Join(t.TempDir(), "zero.csv")
	if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-log", path, "-procs", "4", "-elapsed-ms", "1"}, &stdout, &stderr)
	if err == nil || err.Error() != "core: delivery 7 has length 0" {
		t.Fatalf("error %v, want the zero-length delivery named", err)
	}
	if out := stdout.String() + stderr.String(); strings.Contains(out, "internal error") {
		t.Fatalf("run reported an internal error:\n%s", out)
	}
}

// TestRegeneratesOnTheRunFabric: an -app run on a named fabric has its
// synthetic traffic regenerated on that fabric, not on the default 2-D
// mesh: synthgen's synthetic column equals workload.ValidateOn over the
// machine of the spec it ran.
func TestRegeneratesOnTheRunFabric(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-app", "IS", "-procs", "8", "-scale", "small", "-topology", "torus3d", "-seed", "3",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}

	spec := pipeline.RunSpec{App: "IS", Procs: 8, Scale: apps.ScaleSmall, Topology: "torus3d"}
	eng, err := pipeline.New(pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	art, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := spec.Machine()
	if err != nil {
		t.Fatal(err)
	}
	lines := func(v *workload.Validation) []string {
		return []string{
			fmt.Sprintf("%-22s %14.4f %14.4f %8.3f\n", "msg rate (msg/us)",
				v.Original.MessageRate, v.Synthetic.MessageRate, v.RateErr),
			fmt.Sprintf("%-22s %14.0f %14.0f %8.3f\n", "mean latency (ns)",
				v.Original.MeanLatencyNS, v.Synthetic.MeanLatencyNS, v.LatencyErr),
			fmt.Sprintf("%-22s %14.4f %14.4f %8.3f\n", "mean link utilization",
				v.Original.MeanUtilization, v.Synthetic.MeanUtilization, v.UtilErr),
		}
	}
	onTorus, err := workload.ValidateOn(art.C, torus, 3)
	if err != nil {
		t.Fatal(err)
	}
	onMesh, err := workload.Validate(art.C, 3)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(lines(onTorus), "") == strings.Join(lines(onMesh), "") {
		t.Fatal("the torus and the default mesh regenerate alike, so this run cannot tell them apart")
	}
	for _, want := range lines(onTorus) {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks the torus regeneration's line %q:\n%s", want, stdout.String())
		}
	}
}
