package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the ID of the enclosing span (0
// for an op's root span). Count is the span's unit of work where one
// exists: fitted samples, fired events, trace events, delivered messages.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	Count  int64  `json:"count,omitempty"`
	alloc0 uint64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the traced run's spans in memory; write dumps them once the
// run is over.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// totalAlloc reads the bytes allocated on the heap since the process
// started. Unlike runtime.ReadMemStats it does not stop the world, so a
// span boundary costs little.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, alloc0: totalAlloc()})
	t.open = append(t.open, len(t.spans)-1)
	t.spans[len(t.spans)-1].Start = int64(time.Since(t.epoch))
}

// end closes the innermost open span, recording count as its work.
func (t *tracer) end(count int64) {
	end := int64(time.Since(t.epoch))
	s := &t.spans[t.open[len(t.open)-1]]
	t.open = t.open[:len(t.open)-1]
	s.End = end
	s.Alloc = totalAlloc() - s.alloc0
	s.Count = count
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	t.begin(name)
	err := fn()
	t.end(0)
	return err
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// byName is what the per-layer metrics need of the spans of one name.
type byName struct {
	total time.Duration
	alloc uint64
	count int64
	durs  []time.Duration
}

// summarize groups the spans by name and returns, besides the groups, the
// summed self time of every non-root span and the summed wall of the roots.
func (t *tracer) summarize() (groups map[string]*byName, selfSum, rootSum time.Duration) {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	groups = map[string]*byName{}
	for _, s := range t.spans {
		g := groups[s.Name]
		if g == nil {
			g = &byName{}
			groups[s.Name] = g
		}
		g.total += s.dur()
		g.alloc += s.Alloc
		g.count += s.Count
		g.durs = append(g.durs, s.dur())
		if s.Parent == 0 {
			rootSum += s.dur()
		} else {
			selfSum += s.dur() - child[s.ID]
		}
	}
	return groups, selfSum, rootSum
}
