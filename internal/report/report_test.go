package report

import (
	"strings"
	"testing"

	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/stats"
)

func sampleCharacterization(t *testing.T) *core.Characterization {
	t.Helper()
	st := sim.NewStream(1)
	var log []mesh.Delivery
	id := int64(0)
	for src := 0; src < 4; src++ {
		tm := sim.Time(0)
		for i := 0; i < 200; i++ {
			tm += sim.Time(st.Exponential(5000)) + 1
			dst := st.IntN(3)
			if dst >= src {
				dst++
			}
			id++
			bytes := 8
			if i%3 == 0 {
				bytes = 40
			}
			log = append(log, mesh.Delivery{
				ID: id, Src: int32(src), Dst: int32(dst), Bytes: bytes, Inject: tm,
				End: tm + 300, Hops: 2,
			})
		}
	}
	c, err := core.Analyze("TestApp", core.StrategyDynamic, log, 4, 1<<24, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("xxx", "y")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "xxx") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, separator, row
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestBars(t *testing.T) {
	var sb strings.Builder
	Bars(&sb, "B", []string{"p0", "p1"}, []float64{1, 0.5}, 10)
	out := sb.String()
	if !strings.Contains(out, "##########") {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "#####") {
		t.Fatalf("half bar missing:\n%s", out)
	}
}

func TestBarsZeroValues(t *testing.T) {
	var sb strings.Builder
	Bars(&sb, "", []string{"a"}, []float64{0}, 10)
	if strings.Contains(sb.String(), "#") {
		t.Fatal("zero value drew a bar")
	}
}

func TestCDFOverlay(t *testing.T) {
	d := stats.Exponential{Rate: 0.001}
	st := sim.NewStream(2)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = d.Sample(st)
	}
	var sb strings.Builder
	CDFOverlay(&sb, "overlay", xs, d, 10, 30)
	out := sb.String()
	if strings.Count(out, "\n") < 10 {
		t.Fatalf("overlay too short:\n%s", out)
	}
	// A good fit means most rows show the coincidence marker.
	if strings.Count(out, "*") < 6 {
		t.Fatalf("empirical and fitted diverge unexpectedly:\n%s", out)
	}
}

func TestRenderFullReport(t *testing.T) {
	c := sampleCharacterization(t)
	var sb strings.Builder
	Render(&sb, c)
	out := sb.String()
	for _, want := range []string{
		"=== TestApp", "Inter-arrival time fits per source",
		"Message Distribution for p0", "Message Volume Distribution",
		"aggregate model:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryTables(t *testing.T) {
	c := sampleCharacterization(t)
	cs := []*core.Characterization{c}
	var sb strings.Builder
	TemporalTable("T2", cs).Render(&sb)
	SpatialTable("S", cs).Render(&sb)
	VolumeTable("V", cs).Render(&sb)
	out := sb.String()
	for _, want := range []string{"T2", "BestFit", "DominantPattern", "Bimodal", "TestApp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary tables missing %q:\n%s", want, out)
		}
	}
}

func TestFitRowNil(t *testing.T) {
	n, p, r := FitRow(nil)
	if n != "-" || p != "-" || r != "-" {
		t.Fatal("nil fit row not dashed")
	}
}
