package mesh_test

import (
	"testing"

	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// residual is what a delivery's latency holds beyond the worm engine's
// closed form: the head crosses Hops links at hopTime each, the other
// flits stream in one a cycle behind it, and the head waits Blocked on
// busy channels. Blocked is summed from the head's waits, not derived
// from the latency, so the identity is not true by construction.
func residual(cfg mesh.Config, d mesh.Delivery) sim.Duration {
	hopTime := cfg.CycleTime * sim.Duration(1+cfg.RouterDelay)
	return d.Latency() - sim.Duration(d.Hops)*hopTime - sim.Duration(cfg.Flits(d.Bytes)-1)*cfg.CycleTime - d.Blocked
}

// TestLatencyClosedForm checks the engine's timing, not just its bits, on
// every fabric of the engine digest table under the digest table's
// traffic. Fault-free, every delivered message's latency is exactly
// Hops·hopTime + (Flits−1)·CycleTime + Blocked, and a same-node message
// takes exactly LocalDelay. Under each fault schedule of the table, a
// delivered message's residual is never negative, and it is exactly zero
// when the message was not retransmitted and crossed no slowed link.
func TestLatencyClosedForm(t *testing.T) {
	for _, fab := range goldenFabrics {
		for _, sc := range goldenSchedules {
			if sc.cancelAt > 0 {
				continue // a cancelled run's survivors are the drop row's
			}
			t.Run(fab.name+"/"+sc.name, func(t *testing.T) {
				cfg := fab.cfg()
				s := sim.New()
				net := mesh.New(s, cfg)
				if text := sc.spec(net.Topology()); text != "" {
					sched, err := fault.Parse(text, 17)
					if err != nil {
						t.Fatal(err)
					}
					net.SetFaults(sched)
				}
				var rec deliveryChunks
				oracleTraffic(s, net, &rec, false)
				mesh.MustRun(t, s)
				checked, blocked := 0, 0
				for _, d := range net.Log() {
					if d.Status != mesh.StatusDelivered {
						continue
					}
					if d.Src == d.Dst {
						if d.Latency() != cfg.LocalDelay {
							t.Fatalf("same-node message %d took %d, want LocalDelay %d", d.ID, d.Latency(), cfg.LocalDelay)
						}
						continue
					}
					r := residual(cfg, d)
					exact := d.Retries == 0 && d.Faults&mesh.FaultSlowed == 0
					if r < 0 || exact && r != 0 {
						t.Fatalf("message %d (%d->%d, %d bytes, %d hops, blocked %d, retries %d, faults %v): latency %d leaves residual %d",
							d.ID, d.Src, d.Dst, d.Bytes, d.Hops, d.Blocked, d.Retries, d.Faults, d.Latency(), r)
					}
					if exact {
						checked++
						if d.Blocked > 0 {
							blocked++
						}
					}
				}
				if blocked == 0 {
					t.Fatalf("none of %d deliveries held to the exact identity was blocked", checked)
				}
			})
		}
	}
}
