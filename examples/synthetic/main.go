// Synthetic-traffic scenario: the methodology's payoff. Characterize IS,
// rebuild its workload from the fitted distributions alone, drive a fresh
// mesh with the synthetic traffic, and compare network metrics against the
// original run — if the closed-form models are faithful, the network
// cannot tell the difference.
//
//	go run ./examples/synthetic [-procs 16]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"commchar/internal/apps"
	"commchar/internal/workload"
)

func main() {
	procs := flag.Int("procs", 16, "processors")
	flag.Parse()

	w, err := apps.ByName(apps.ScaleSmall, "IS")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("characterizing IS on %d processors...\n", *procs)
	c, err := w.Characterize(context.Background(), *procs)
	if err != nil {
		log.Fatal(err)
	}
	best := c.BestAggregate()
	fmt.Printf("fitted aggregate inter-arrival model: %s (R²=%.4f)\n", best.Dist, best.R2)
	pattern, n := c.DominantSpatial()
	fmt.Printf("dominant spatial pattern: %s (%d sources)\n\n", pattern, n)

	v, err := workload.Validate(c, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %14s %14s %8s\n", "metric", "original", "synthetic", "rel.err")
	fmt.Printf("%-22s %14.4f %14.4f %8.3f\n", "msg rate (msg/us)",
		v.Original.MessageRate, v.Synthetic.MessageRate, v.RateErr)
	fmt.Printf("%-22s %14.0f %14.0f %8.3f\n", "mean latency (ns)",
		v.Original.MeanLatencyNS, v.Synthetic.MeanLatencyNS, v.LatencyErr)
	fmt.Printf("%-22s %14.4f %14.4f %8.3f\n", "mean link utilization",
		v.Original.MeanUtilization, v.Synthetic.MeanUtilization, v.UtilErr)
	fmt.Println("\nThe synthetic workload was generated purely from the fitted")
	fmt.Println("distributions — no trace was replayed.")
}
