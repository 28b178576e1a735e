// Message-passing scenario: the paper's static strategy, step by step and
// explicitly — native execution of the NAS 3D-FFT kernel on an SP2-like
// machine with application-level tracing, trace serialization, dependency-
// aware replay through the 2-D mesh with the validated SP2 software-
// overhead model, and characterization of the replayed log.
//
//	go run ./examples/messagepassing [-procs 8]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"commchar/internal/apps/fft3d"
	"commchar/internal/core"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/report"
	"commchar/internal/sim"
	"commchar/internal/sp2"
	"commchar/internal/trace"
)

func main() {
	procs := flag.Int("procs", 8, "ranks (power of two)")
	flag.Parse()

	// Step 1: native execution with tracing (the IBM utility's role).
	fmt.Printf("step 1: run 3D-FFT natively on an SP2-like machine, %d ranks\n", *procs)
	w := mp.NewWorld(mp.DefaultConfig(*procs))
	cfg := fft3d.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ, cfg.Iterations = 16, 16, 16, 2
	if _, err := fft3d.Run(w, cfg, *procs); err != nil {
		log.Fatal(err)
	}
	tr := w.Trace()
	fmt.Printf("        traced %d application-level messages\n", tr.Messages())

	// Step 2: serialize the trace (round-trip through the CSV format).
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 2: trace serialized to %d bytes of CSV\n", buf.Len())
	tr2, err := trace.ReadCSV(&buf, *procs)
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: dependency-aware replay through the mesh with SP2 costs.
	fmt.Println("step 3: replay through the 2-D wormhole mesh with SP2 overheads")
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(*procs)...))
	if err := trace.Replay(s, net, tr2, sp2.Default()); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("        %d messages delivered in %.3f ms of simulated time\n\n",
		net.Delivered(), float64(s.Now())/1e6)

	// Step 4: characterize the network log.
	c, err := core.Analyze("3D-FFT", core.StrategyStatic, net.Log(), *procs,
		s.Now(), net.MeanUtilization())
	if err != nil {
		log.Fatal(err)
	}
	report.Render(os.Stdout, c)

	fmt.Println("\nRank 0 roots every broadcast and reduction, making p0 the 'favorite'")
	fmt.Println("destination in the spatial figures, while the all-to-all transpose keeps")
	fmt.Println("the volume distribution uniform — the paper's observation for 3D-FFT.")
}
