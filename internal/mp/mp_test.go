package mp

import (
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
	"commchar/internal/trace"
)

func TestPingPongPayload(t *testing.T) {
	w := NewWorld(DefaultConfig(2))
	var got any
	_, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, 64, "hello")
		case 1:
			_, got = r.Recv(0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
}

func TestRecvBlocksUntilArrival(t *testing.T) {
	w := NewWorld(DefaultConfig(2))
	var recvDone sim.Time
	makespan, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(1_000_000) // sender works for 1 ms first
			r.Send(1, 0, 128, nil)
		case 1:
			r.Recv(0, 0)
			recvDone = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvDone < 1_000_000 {
		t.Fatalf("receiver finished at %d, before the send was even issued", recvDone)
	}
	if makespan < recvDone {
		t.Fatalf("makespan %d < receiver completion %d", makespan, recvDone)
	}
}

func TestSendIsBuffered(t *testing.T) {
	// The sender must be able to complete even if the receiver never posts
	// until much later — sends are buffered, not rendezvous.
	w := NewWorld(DefaultConfig(2))
	var sendDone sim.Time
	_, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, 64, nil)
			sendDone = r.Now()
		case 1:
			r.Compute(50_000_000)
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone >= 50_000_000 {
		t.Fatalf("send blocked until receiver posted (%d)", sendDone)
	}
}

func TestDeadlockDetected(t *testing.T) {
	w := NewWorld(DefaultConfig(2))
	_, err := w.Run(func(r *Rank) {
		// Both ranks receive first: classic deadlock.
		r.Recv(1-r.ID(), 0)
	})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestSoftwareOverheadCharged(t *testing.T) {
	cfg := DefaultConfig(2)
	w := NewWorld(cfg)
	makespan, err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, 1000, nil)
		case 1:
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Makespan must cover both overhead halves plus hardware transit:
	// total software overhead for 1000 bytes is 119.72 µs.
	min := cfg.Cost.Total(1000)
	if makespan < sim.Time(min) {
		t.Fatalf("makespan %d ns < software overhead %d ns", makespan, min)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	w := NewWorld(DefaultConfig(n))
	after := make([]sim.Time, n)
	var slowest sim.Time
	_, err := w.Run(func(r *Rank) {
		work := sim.Duration(r.ID()) * 100_000
		r.Compute(work)
		if s := r.Now(); s > slowest {
			slowest = s
		}
		r.Barrier()
		after[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range after {
		if a < slowest {
			t.Fatalf("rank %d left barrier at %d, before slowest entry %d", i, a, slowest)
		}
	}
}

func TestBcastDeliversPayload(t *testing.T) {
	const n = 6
	w := NewWorld(DefaultConfig(n))
	got := make([]any, n)
	_, err := w.Run(func(r *Rank) {
		var data any
		if r.ID() == 2 {
			data = 12345
		}
		got[r.ID()] = r.Bcast(2, 512, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 12345 {
			t.Fatalf("rank %d got %v", i, v)
		}
	}
}

func TestReduceSums(t *testing.T) {
	const n = 5
	w := NewWorld(DefaultConfig(n))
	var result any
	_, err := w.Run(func(r *Rank) {
		v := r.Reduce(0, 8, r.ID()+1, func(a, b any) any { return a.(int) + b.(int) })
		if r.ID() == 0 {
			result = v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if result != 15 { // 1+2+3+4+5
		t.Fatalf("reduce = %v, want 15", result)
	}
}

func TestAllreduceAgreement(t *testing.T) {
	const n = 4
	w := NewWorld(DefaultConfig(n))
	got := make([]any, n)
	_, err := w.Run(func(r *Rank) {
		got[r.ID()] = r.Allreduce(8, 1<<r.ID(), func(a, b any) any { return a.(int) + b.(int) })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 15 { // 1+2+4+8
			t.Fatalf("rank %d allreduce = %v", i, v)
		}
	}
}

func TestAlltoallPermutation(t *testing.T) {
	const n = 4
	w := NewWorld(DefaultConfig(n))
	results := make([][]any, n)
	_, err := w.Run(func(r *Rank) {
		chunks := make([]any, n)
		for j := range chunks {
			chunks[j] = r.ID()*100 + j // value encodes (from, to)
		}
		results[r.ID()] = r.Alltoall(256, chunks)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := j*100 + i // rank i's slot j came from rank j
			if results[i][j] != want {
				t.Fatalf("rank %d slot %d = %v, want %d", i, j, results[i][j], want)
			}
		}
	}
}

func TestGatherCollects(t *testing.T) {
	const n = 4
	w := NewWorld(DefaultConfig(n))
	var gathered []any
	_, err := w.Run(func(r *Rank) {
		out := r.Gather(1, 64, r.ID()*r.ID())
		if r.ID() == 1 {
			gathered = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range gathered {
		if v != i*i {
			t.Fatalf("gathered[%d] = %v", i, v)
		}
	}
}

func TestTraceIsValidAndReplayable(t *testing.T) {
	const n = 8
	w := NewWorld(DefaultConfig(n))
	_, err := w.Run(func(r *Rank) {
		r.Bcast(0, 1024, nil)
		chunks := make([]any, n)
		r.Alltoall(512, chunks)
		r.Allreduce(8, 0, func(a, b any) any { return a })
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Messages() == 0 {
		t.Fatal("no messages traced")
	}
	// The trace must replay to completion through the mesh.
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 2))
	if err := trace.Replay(s, net, tr, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if int(net.Delivered()) != tr.Messages() {
		t.Fatalf("replay delivered %d of %d", net.Delivered(), tr.Messages())
	}
}

func TestBcastRootIsFavoriteInTrace(t *testing.T) {
	// The paper observes p0 as "favorite" because it roots all broadcasts.
	const n = 8
	w := NewWorld(DefaultConfig(n))
	_, err := w.Run(func(r *Rank) {
		for i := 0; i < 20; i++ {
			r.Bcast(0, 256, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for rank, seq := range w.Trace().Events {
		for _, e := range seq {
			if e.Op == trace.OpSend {
				counts[rank]++
			}
		}
	}
	if counts[0] != 20*(n-1) {
		t.Fatalf("root sent %d messages, want %d", counts[0], 20*(n-1))
	}
	for i := 1; i < n; i++ {
		if counts[i] != 0 {
			t.Fatalf("rank %d sent %d messages during bcast", i, counts[i])
		}
	}
}

func TestCollectiveTagsDoNotCollideWithAppTags(t *testing.T) {
	w := NewWorld(DefaultConfig(2))
	_, err := w.Run(func(r *Rank) {
		// Interleave app-level traffic with collectives on tag 0.
		if r.ID() == 0 {
			r.Send(1, 0, 8, "app")
		} else {
			_, p := r.Recv(0, 0)
			if p != "app" {
				t.Errorf("app payload corrupted: %v", p)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
