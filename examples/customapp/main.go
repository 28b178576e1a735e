// Custom-application scenario: characterize YOUR code. This example shows
// the whole public surface needed to put a new shared-memory kernel under
// the methodology: allocate shared arrays, express the algorithm with
// Read/Write/Compute/Lock/Barrier, and hand the machine to the analyzer.
//
// The kernel here is a pipelined producer-consumer ring: each processor
// repeatedly writes a block that its right neighbour reads — a workload
// with a strongly structured spatial pattern that none of the paper's
// seven applications exhibits, demonstrating that the methodology (not
// just the suite) is what this library ships.
//
//	go run ./examples/customapp
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"commchar/internal/core"
	"commchar/internal/report"
	"commchar/internal/sim"
	"commchar/internal/spasm"
)

func main() {
	const procs = 8
	const blocks = 64
	const rounds = 30

	c, err := core.CharacterizeSharedMemory(context.Background(), "ring", procs, func(m *spasm.Machine) error {
		// One block of 64 doubles per processor.
		buffers := make([]spasm.Array, procs)
		for i := range buffers {
			buffers[i] = m.NewArray(blocks, 8)
		}
		_, err := m.Run(func(e *spasm.Env) {
			left := (e.ID() - 1 + procs) % procs
			for r := 0; r < rounds; r++ {
				// Produce: fill my buffer.
				for b := 0; b < blocks; b++ {
					e.WriteArray(buffers[e.ID()], b)
					e.Compute(50 * sim.Nanosecond)
				}
				e.Barrier()
				// Consume: read my left neighbour's buffer.
				for b := 0; b < blocks; b++ {
					e.ReadArray(buffers[left], b)
					e.Compute(30 * sim.Nanosecond)
				}
				e.Barrier()
			}
		})
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	report.Render(os.Stdout, c)
	loc := c.AnalyzeLocality()
	fmt.Printf("\nring pipeline: %.1f%% of messages stay within one hop; burst ratio %.1f\n",
		100*loc.NeighbourFraction, c.BurstRatio(core.RateWindows))
}
