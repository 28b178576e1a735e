package report

import (
	"fmt"

	"commchar/internal/mesh"
	"commchar/internal/obs"
)

// MaxTimelineMessages bounds the per-run message timeline exported into
// a Chrome trace: beyond it the timeline is truncated (announced with
// an instant marker) so a huge sweep cannot balloon the trace file.
const MaxTimelineMessages = 50000

// TimelineEvents converts a run's delivery log into simulated-time
// Chrome trace slices: one Perfetto process per run, one track per
// source rank, one slice per message spanning injection to tail-flit
// delivery (sim nanoseconds rendered on the trace's microsecond axis).
// Blocked time, hop count, and fault outcomes travel as slice
// arguments, so the message-flow structure the paper characterizes
// statistically is also directly inspectable.
func TimelineEvents(label string, log []mesh.Delivery) []obs.TraceEvent {
	process := "sim " + label
	n := len(log)
	truncated := n > MaxTimelineMessages
	if truncated {
		n = MaxTimelineMessages
	}
	events := make([]obs.TraceEvent, 0, n+1)
	for _, d := range log[:n] {
		args := map[string]string{
			"bytes": fmt.Sprintf("%d", d.Bytes),
			"hops":  fmt.Sprintf("%d", d.Hops),
		}
		if d.Blocked > 0 {
			args["blocked_ns"] = fmt.Sprintf("%d", int64(d.Blocked))
		}
		if d.Retries > 0 {
			args["retries"] = fmt.Sprintf("%d", d.Retries)
		}
		if d.Faults != 0 {
			args["faults"] = d.Faults.String()
		}
		name := fmt.Sprintf("msg %d→%d", d.Src, d.Dst)
		if d.Status != mesh.StatusDelivered {
			name += " (failed)"
			args["status"] = "failed"
		}
		dur := float64(d.Latency()) / 1e3
		if dur <= 0 {
			// Zero-length slices vanish in the viewer; render the
			// minimum visible width instead.
			dur = 0.001
		}
		events = append(events, obs.TraceEvent{
			Process: process,
			Track:   fmt.Sprintf("rank %02d", d.Src),
			Cat:     "msg",
			Name:    name,
			TS:      float64(d.Inject) / 1e3,
			Dur:     dur,
			Phase:   'X',
		})
		events[len(events)-1].Args = args
	}
	if truncated {
		events = append(events, obs.TraceEvent{
			Process: process, Track: "rank 00", Cat: "msg",
			Name:  "timeline truncated",
			TS:    float64(log[n-1].Inject) / 1e3,
			Phase: 'i',
			Args: map[string]string{
				"messages_total": fmt.Sprintf("%d", len(log)),
				"messages_kept":  fmt.Sprintf("%d", n),
			},
		})
	}
	return events
}
