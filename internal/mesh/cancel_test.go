package mesh_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// cancelHotSpot injects msgs messages from every other node to node 0 of
// a 4x4 mesh and cancels the checked run once half of them are in flight.
// It returns the run's error, the messages in flight at the cancellation,
// how many goroutines the process gained by then, and the pending-message
// lines the network's diagnostic must hold: the undelivered messages in
// ascending ID order, at most 20 of them, then a count of the rest.
func cancelHotSpot(t *testing.T, msgs int) (*sim.DeadlockError, int, int, string) {
	t.Helper()
	base := runtime.NumGoroutine()
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 4))
	delivered := make([]bool, msgs)
	for i := 0; i < msgs; i++ {
		net.Inject(mesh.Message{Src: 1 + i%15, Dst: 0, Bytes: 256, Inject: sim.Time(i)},
			func(d mesh.Delivery) { delivered[d.ID-1] = true })
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.SetContext(ctx)
	inFlight, grown := 0, 0
	s.SetProgress(64, func(sim.Time, int64) {
		if inFlight == 0 && net.InFlight() >= msgs/2 {
			inFlight, grown = net.InFlight(), runtime.NumGoroutine()-base
			cancel()
		}
	})
	err := s.Run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want a cancellation DeadlockError", err)
	}
	if inFlight == 0 {
		t.Fatal("run finished before half the messages were in flight")
	}
	var lines strings.Builder
	listed, pending := 0, 0
	for i, done := range delivered {
		if done {
			continue
		}
		if pending++; listed < 20 {
			listed++
			fmt.Fprintf(&lines, "\n  pending msg %d: %d->0, 256 bytes, injected t=%d", i+1, 1+i%15, i)
		}
	}
	if pending > listed {
		fmt.Fprintf(&lines, "\n  ... %d more pending messages\n", pending-listed)
	}
	return de, inFlight, grown, lines.String()
}

// TestCancelledRunDiagnosesNetwork cancels a checked run with a hot spot
// in flight. Worms are not processes, so they appear in neither Blocked
// nor Cycle; the network's own diagnostic must still name the pending
// messages and the occupied links. And the number of goroutines must not
// grow with the number of messages in flight.
func TestCancelledRunDiagnosesNetwork(t *testing.T) {
	small, smallInFlight, smallGrown, smallLines := cancelHotSpot(t, 100)
	large, largeInFlight, largeGrown, largeLines := cancelHotSpot(t, 2000)

	for i, de := range []*sim.DeadlockError{small, large} {
		if len(de.Blocked) != 0 || len(de.Cycle) != 0 {
			t.Errorf("worms listed as blocked processes: %v, cycle %v", de.Blocked, de.Cycle)
		}
		text := de.Error()
		for _, want := range []string{"[mesh]", []string{smallLines, largeLines}[i], "lanes busy", "queued"} {
			if !strings.Contains(text, want) {
				t.Errorf("diagnostic lacks %q:\n%s", want, text)
			}
		}
	}
	if largeInFlight < 10*smallInFlight {
		t.Fatalf("in flight at cancellation: %d and %d messages, want a tenfold spread", smallInFlight, largeInFlight)
	}
	if largeGrown > smallGrown+2 {
		t.Errorf("goroutines grew by %d with %d messages in flight, by %d with %d",
			largeGrown, largeInFlight, smallGrown, smallInFlight)
	}
}

// TestCancelledDumpNamesInterruptedMessages cancels a run from a calendar
// callback at a fixed simulated time. From then on each worm that starts
// an attempt gives itself up, so the calendar drains before Run polls the
// context and the live list is empty by the time the run reports its
// cancellation. The mesh's dump must still name the messages that were in
// flight when the first worm saw the cancellation, the same way each run.
func TestCancelledDumpNamesInterruptedMessages(t *testing.T) {
	dump := func() string {
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 4))
		for i := range 40 {
			net.Inject(mesh.Message{Src: 1 + i%15, Dst: 0, Bytes: 256, Inject: sim.Time(100 * i)}, nil)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.SetContext(ctx)
		s.At(1050, cancel)
		err := s.Run()
		var de *sim.DeadlockError
		if !errors.As(err, &de) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want a cancellation DeadlockError", err)
		}
		return de.Error()
	}
	text := dump()
	for _, want := range []string{
		"in-flight: 0 messages, delivered: 11, failed: 29",
		"in flight at cancellation (t=1100): 39 messages\n  interrupted msg 2: 2->0, 256 bytes, injected t=100\n",
		"\n  interrupted msg 12: 12->0, 256 bytes, injected t=1100\n",
		"\n  ... 19 more interrupted messages",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("diagnostic lacks %q:\n%s", want, text)
		}
	}
	if again := dump(); again != text {
		t.Errorf("equal runs dumped differently:\n%s\n---\n%s", text, again)
	}
}
