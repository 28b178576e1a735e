package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// A LogEvent is one structured entry in the event log.
type LogEvent struct {
	// Seq is the deterministic per-log sequence number.
	Seq int64 `json:"seq"`
	// T is the wall instant the event was emitted (from the log's Clock).
	T time.Time `json:"t"`
	// Name identifies the event, dot-scoped: "spec.done", "cache.hit",
	// "spec.failed".
	Name string `json:"event"`
	// Fields carry the event's annotations (encoding/json renders map
	// keys sorted, keeping exports deterministic).
	Fields map[string]string `json:"fields,omitempty"`
}

// An EventLog is a bounded flight recorder: it retains the most recent
// capacity events in a ring buffer (the tail of a long sweep stays
// inspectable at /events without unbounded memory) while counting every
// emission. All methods are safe for concurrent use and safe on a nil
// *EventLog.
type EventLog struct {
	mu    sync.Mutex
	clock Clock
	ring  []LogEvent
	next  int   // ring slot the next event lands in
	total int64 // events emitted since construction
}

// NewEventLog returns a flight recorder retaining the last capacity
// events (minimum 1; nil clock means System()).
func NewEventLog(clock Clock, capacity int) *EventLog {
	if clock == nil {
		clock = System()
	}
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{clock: clock, ring: make([]LogEvent, 0, capacity)}
}

// Emit appends an event, evicting the oldest once the ring is full.
func (l *EventLog) Emit(name string, fields map[string]string) {
	if l == nil {
		return
	}
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := LogEvent{Seq: l.total, T: now, Name: name, Fields: fields}
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
		return
	}
	l.ring[l.next] = ev
	l.next = (l.next + 1) % cap(l.ring)
}

// Total reports the number of events emitted since construction
// (including ones the ring has already evicted).
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Recent returns the retained events, oldest first.
func (l *EventLog) Recent() []LogEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogEvent, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		return append(out, l.ring...)
	}
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}

// WriteJSONL writes the retained events as JSON Lines, oldest first.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	for _, ev := range l.Recent() {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("obs: encoding event %q: %w", ev.Name, err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
