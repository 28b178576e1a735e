// Quickstart: characterize one application's communication in a few lines.
//
// The pipeline is the paper's dynamic strategy end to end: the 1D-FFT
// kernel executes on a simulated 16-processor CC-NUMA machine, every cache
// miss and synchronization event travels a wormhole-routed 2-D mesh, and
// the network log is reduced to closed-form temporal, spatial, and volume
// models.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"commchar/internal/apps/fft1d"
	"commchar/internal/core"
	"commchar/internal/report"
	"commchar/internal/spasm"
)

func main() {
	c, err := core.CharacterizeSharedMemory(context.Background(), "1D-FFT", 16, func(m *spasm.Machine) error {
		cfg := fft1d.DefaultConfig()
		cfg.Points = 4096
		_, err := fft1d.Run(m, cfg)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	report.Render(os.Stdout, c)

	best := c.BestAggregate()
	fmt.Printf("\nSummary: %d messages; inter-arrival times follow %s (R²=%.4f);\n",
		c.Messages, best.Dist, best.R2)
	pattern, n := c.DominantSpatial()
	fmt.Printf("dominant spatial pattern: %s (%d of %d sources); mean message %.1f bytes.\n",
		pattern, n, c.Procs, c.Volume.Mean)
}
