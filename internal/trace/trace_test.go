package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

func pingPong() *Trace {
	t := New(2)
	t.Add(0, Event{Op: OpSend, Peer: 1, Bytes: 64, Tag: 1, Compute: 100})
	t.Add(0, Event{Op: OpRecv, Peer: 1, Tag: 2})
	t.Add(1, Event{Op: OpRecv, Peer: 0, Tag: 1})
	t.Add(1, Event{Op: OpSend, Peer: 0, Bytes: 32, Tag: 2, Compute: 50})
	return t
}

func TestValidateAcceptsBalanced(t *testing.T) {
	if err := pingPong().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnbalanced(t *testing.T) {
	tr := New(2)
	tr.Add(0, Event{Op: OpSend, Peer: 1, Bytes: 8, Tag: 0})
	if tr.Validate() == nil {
		t.Fatal("unmatched send accepted")
	}
}

// TestValidateNamesSmallestUnbalancedChannel: of several unbalanced
// channels, Validate names the smallest (src, dst, tag), every time.
func TestValidateNamesSmallestUnbalancedChannel(t *testing.T) {
	tr := New(4)
	for rank := 3; rank >= 0; rank-- {
		for tag := 5; tag >= 0; tag-- {
			tr.Add(rank, Event{Op: OpSend, Peer: (rank + 1) % 4, Bytes: 8, Tag: tag})
		}
	}
	tr.Add(1, Event{Op: OpRecv, Peer: 0, Tag: 0}) // balances 0->1 tag 0
	const want = "trace: channel 0->1 tag 1 unbalanced by 1"
	for range 50 {
		if err := tr.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate = %v, want %q", err, want)
		}
	}
}

func TestValidateRejectsBadPeer(t *testing.T) {
	tr := New(2)
	tr.Add(0, Event{Op: OpSend, Peer: 5, Bytes: 8})
	if tr.Validate() == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

func TestValidateRejectsZeroBytes(t *testing.T) {
	tr := New(2)
	tr.Add(0, Event{Op: OpSend, Peer: 1, Bytes: 0})
	tr.Add(1, Event{Op: OpRecv, Peer: 0})
	if tr.Validate() == nil {
		t.Fatal("zero-byte send accepted")
	}
}

func TestMessagesCount(t *testing.T) {
	if got := pingPong().Messages(); got != 2 {
		t.Fatalf("messages = %d, want 2", got)
	}
}

func TestReplayPingPong(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 2, 1))
	if err := Replay(s, net, pingPong(), nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	log := net.Log()
	if len(log) != 2 {
		t.Fatalf("replayed %d messages, want 2", len(log))
	}
	// Causality: rank 1's send must be injected after rank 0's message
	// was delivered to it (plus its own compute of 50).
	first, second := log[0], log[1]
	if first.Src != 0 || second.Src != 1 {
		t.Fatalf("unexpected order: %+v", log)
	}
	if second.Inject < first.End+50 {
		t.Fatalf("dependent send at %d before delivery %d + compute", second.Inject, first.End)
	}
	// Rank 0's send must be injected at its compute offset.
	if first.Inject != 100 {
		t.Fatalf("first inject at %d, want 100", first.Inject)
	}
}

type fixedCost struct{ send, recv sim.Duration }

func (c fixedCost) SendOverhead(int) sim.Duration { return c.send }
func (c fixedCost) RecvOverhead(int) sim.Duration { return c.recv }

func TestReplayCostModelShiftsInjection(t *testing.T) {
	run := func(cost CostModel) mesh.Delivery {
		s := sim.New()
		net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 2, 1))
		tr := New(2)
		tr.Add(0, Event{Op: OpSend, Peer: 1, Bytes: 64, Tag: 0})
		tr.Add(1, Event{Op: OpRecv, Peer: 0, Tag: 0})
		if err := Replay(s, net, tr, cost); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return net.Log()[0]
	}
	base := run(nil)
	shifted := run(fixedCost{send: 500, recv: 200})
	if shifted.Inject != base.Inject+500 {
		t.Fatalf("send overhead not applied: %d vs %d", shifted.Inject, base.Inject)
	}
}

func TestReplayFIFOMatchingSameChannel(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 2, 1))
	tr := New(2)
	// Two sends on the same channel; receives must match FIFO and the
	// replay must complete (no deadlock).
	tr.Add(0, Event{Op: OpSend, Peer: 1, Bytes: 8, Tag: 0})
	tr.Add(0, Event{Op: OpSend, Peer: 1, Bytes: 16, Tag: 0, Compute: 10})
	tr.Add(1, Event{Op: OpRecv, Peer: 0, Tag: 0})
	tr.Add(1, Event{Op: OpRecv, Peer: 0, Tag: 0})
	if err := Replay(s, net, tr, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if net.Delivered() != 2 {
		t.Fatalf("delivered %d", net.Delivered())
	}
}

func TestReplayManyRanksAllToAll(t *testing.T) {
	const n = 8
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 2))
	tr := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tr.Add(i, Event{Op: OpSend, Peer: j, Bytes: 128, Tag: i*n + j, Compute: 10})
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tr.Add(i, Event{Op: OpRecv, Peer: j, Tag: j*n + i})
		}
	}
	if err := Replay(s, net, tr, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if net.Delivered() != n*(n-1) {
		t.Fatalf("delivered %d, want %d", net.Delivered(), n*(n-1))
	}
	if net.InFlight() != 0 {
		t.Fatal("messages still in flight")
	}
}

// TestReplayDeadlockDiagnostic pins the watchdog's report of a replay
// deadlock: both ranks receive before they send, so each waits on the
// other, and the report names the cycle, each rank's awaited message and
// its holder.
func TestReplayDeadlockDiagnostic(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 2, 1))
	tr := New(2)
	tr.Add(0, Event{Op: OpRecv, Peer: 1, Tag: 1})
	tr.Add(0, Event{Op: OpSend, Peer: 1, Bytes: 8, Tag: 0})
	tr.Add(1, Event{Op: OpRecv, Peer: 0, Tag: 0, Compute: 30})
	tr.Add(1, Event{Op: OpSend, Peer: 0, Bytes: 8, Tag: 1})
	if err := Replay(s, net, tr, nil); err != nil {
		t.Fatal(err)
	}
	err := s.Run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want a *sim.DeadlockError", err)
	}
	want := "sim: deadlock: calendar drained with blocked processes at t=30 after 3 events (0 pending)\n" +
		"  wait-for cycle: replay-rank0 -> replay-rank1 -> replay-rank0\n" +
		"  blocked: replay-rank0 waits on message from rank 1 (tag 1) held by replay-rank1\n" +
		"  blocked: replay-rank1 waits on message from rank 0 (tag 0) held by replay-rank0"
	if got := err.Error(); !strings.HasPrefix(got, want) {
		t.Fatalf("diagnostic:\n%s\nwant prefix:\n%s", got, want)
	}
}

func TestReplayRejectsTooManyRanks(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 2, 1))
	if err := Replay(s, net, New(5), nil); err == nil {
		t.Fatal("5 ranks on 2 nodes accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := pingPong()
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ranks != orig.Ranks {
		t.Fatalf("ranks = %d", back.Ranks)
	}
	for r := range orig.Events {
		if len(back.Events[r]) != len(orig.Events[r]) {
			t.Fatalf("rank %d: %d events, want %d", r, len(back.Events[r]), len(orig.Events[r]))
		}
		for i := range orig.Events[r] {
			if back.Events[r][i] != orig.Events[r][i] {
				t.Fatalf("rank %d event %d: %+v != %+v", r, i, back.Events[r][i], orig.Events[r][i])
			}
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	prop := func(seed uint64, count uint8) bool {
		st := sim.NewStream(seed)
		const ranks = 4
		tr := New(ranks)
		n := int(count)%50 + 1
		for i := 0; i < n; i++ {
			src := st.IntN(ranks)
			dst := st.IntN(ranks)
			if src == dst {
				dst = (dst + 1) % ranks
			}
			tag := st.IntN(8)
			bytes := 1 + st.IntN(4096)
			tr.Add(src, Event{Op: OpSend, Peer: dst, Bytes: bytes, Tag: tag, Compute: sim.Duration(st.IntN(1000))})
			tr.Add(dst, Event{Op: OpRecv, Peer: src, Tag: tag})
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf, ranks)
		if err != nil {
			return false
		}
		if back.Messages() != tr.Messages() {
			return false
		}
		for r := range tr.Events {
			for i := range tr.Events[r] {
				if back.Events[r][i] != tr.Events[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveriesRoundTrip(t *testing.T) {
	s := sim.New()
	net := mesh.New(s, mesh.DefaultConfig(mesh.MeshTopology, 4, 2))
	st := sim.NewStream(1)
	for i := 0; i < 50; i++ {
		net.Inject(mesh.Message{
			ID: int64(i + 1), Src: st.IntN(8), Dst: st.IntN(8),
			Bytes: 1 + st.IntN(512), Inject: sim.Time(st.IntN(1000)),
		}, nil)
	}
	s.Run()
	log := net.Log()
	var buf bytes.Buffer
	if err := WriteDeliveries(&buf, log); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeliveries(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(log) {
		t.Fatalf("read %d deliveries, want %d", len(back), len(log))
	}
	for i := range log {
		if back[i] != log[i] {
			t.Fatalf("delivery %d: %+v != %+v", i, back[i], log[i])
		}
	}
}
