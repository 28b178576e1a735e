package core

import (
	"math"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// burstyLog builds a log with two dense communication phases separated by
// silence, all with known hop counts.
func burstyLog(procs int) ([]mesh.Delivery, sim.Time) {
	var log []mesh.Delivery
	id := int64(0)
	add := func(t sim.Time, src, dst, hops int) {
		id++
		log = append(log, mesh.Delivery{
			Message: mesh.Message{ID: id, Src: src, Dst: dst, Bytes: 8, Inject: t},
			End:     t + 100, Latency: 100, Hops: hops,
		})
	}
	// Phase 1: t in [0, 1000), heavy.
	for i := 0; i < 200; i++ {
		add(sim.Time(i*5), i%procs, (i+1)%procs, 1)
	}
	// Silence: [1000, 9000).
	// Phase 2: t in [9000, 10000), heavy, longer hops.
	for i := 0; i < 200; i++ {
		add(sim.Time(9000+i*5), i%procs, (i+2)%procs, 3)
	}
	return log, 10000
}

func TestRateOverTimeShowsPhases(t *testing.T) {
	log, elapsed := burstyLog(4)
	c, err := Analyze("bursty", StrategyDynamic, log, 4, elapsed, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pts := c.RateOverTime(10)
	if len(pts) != 10 {
		t.Fatalf("windows = %d", len(pts))
	}
	if pts[0].Messages != 200 || pts[9].Messages != 200 {
		t.Fatalf("edge windows: %d, %d", pts[0].Messages, pts[9].Messages)
	}
	for i := 2; i < 8; i++ {
		if pts[i].Messages != 0 {
			t.Fatalf("window %d should be silent, has %d", i, pts[i].Messages)
		}
	}
	// Total conserved.
	total := 0
	for _, p := range pts {
		total += p.Messages
	}
	if total != 400 {
		t.Fatalf("total = %d", total)
	}
}

func TestBurstRatio(t *testing.T) {
	log, elapsed := burstyLog(4)
	c, err := Analyze("bursty", StrategyDynamic, log, 4, elapsed, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 windows, 2 active: mean 40 msg/window, peak 200 → ratio 5.
	if r := c.BurstRatio(10); math.Abs(r-5) > 1e-9 {
		t.Fatalf("burst ratio = %v, want 5", r)
	}
}

func TestAnalyzeLocality(t *testing.T) {
	log, elapsed := burstyLog(4)
	c, err := Analyze("bursty", StrategyDynamic, log, 4, elapsed, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	loc := c.AnalyzeLocality()
	if loc.HopCounts[1] != 200 || loc.HopCounts[3] != 200 {
		t.Fatalf("hop counts: %v", loc.HopCounts)
	}
	if math.Abs(loc.NeighbourFraction-0.5) > 1e-9 {
		t.Fatalf("neighbour fraction = %v", loc.NeighbourFraction)
	}
	if math.Abs(loc.MeanHops-2) > 1e-9 {
		t.Fatalf("mean hops = %v", loc.MeanHops)
	}
}

func TestAnalyzeReceivers(t *testing.T) {
	var log []mesh.Delivery
	for i := 0; i < 30; i++ {
		dst := 2
		if i%3 == 0 {
			dst = 1
		}
		log = append(log, mesh.Delivery{
			Message: mesh.Message{ID: int64(i + 1), Src: 0, Dst: dst, Bytes: 8, Inject: sim.Time(i * 10)},
			End:     sim.Time(i*10 + 50), Latency: 50, Hops: 1,
		})
	}
	c, err := Analyze("recv", StrategyDynamic, log, 4, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp := c.AnalyzeReceivers()
	if rp.Favorite != 2 {
		t.Fatalf("favorite = %d", rp.Favorite)
	}
	if math.Abs(rp.FavoriteShare-2.0/3.0) > 1e-9 {
		t.Fatalf("favorite share = %v", rp.FavoriteShare)
	}
}

func TestRateOverTimeDegenerate(t *testing.T) {
	log, _ := burstyLog(4)
	c, err := Analyze("x", StrategyDynamic, log, 4, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.RateOverTime(0) != nil {
		t.Fatal("zero windows should return nil")
	}
}
