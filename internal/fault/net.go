package fault

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The network fault layer mirrors the mesh fault layer one level up: a
// seeded NetSchedule makes every chaos decision a pure hash of
// (seed, rule, request sequence number), so a "flaky coordinator" run is
// exactly reproducible — the same requests fail the same way every time,
// regardless of goroutine interleaving. A RoundTripper applies the
// schedule to an http.Client, which is how the distributed sweep's chaos
// matrix injects drops, delays, connection resets, truncated bodies, and
// 5xx bursts between workers and coordinator without touching a real
// network.
//
// Net schedules are written as compact specs, e.g.
//
//	drop:0.2            refuse the connection with probability 0.2
//	delay:0.5:20ms      delay the request 20ms with probability 0.5
//	reset:0.1           send the request, then lose the answer (ECONNRESET)
//	trunc:0.1           cut the response body short (unexpected EOF)
//	5xx:0.25            answer 503 without reaching the server
//	drop:1@0-10         windows are request ordinals: drop requests 0..9
//
// joined with ';', e.g. "drop:1@0-3;delay:0.5:10ms". Note the reset/drop
// distinction: a dropped request never reaches the server, a reset one
// does — its side effects land, only the acknowledgement is lost, which
// is exactly the race idempotent completions exist for.

// NetKind is the class of an injected network fault.
type NetKind int

const (
	// NetDrop refuses the connection: the request never reaches the server.
	NetDrop NetKind = iota
	// NetDelay stalls the request before sending it.
	NetDelay
	// NetReset sends the request but loses the response (connection reset):
	// server-side effects happen, the client sees a transport error.
	NetReset
	// NetTrunc truncates the response body mid-stream.
	NetTrunc
	// Net5xx short-circuits the request with a 503 answer.
	Net5xx
)

func (k NetKind) String() string {
	switch k {
	case NetDrop:
		return "drop"
	case NetDelay:
		return "delay"
	case NetReset:
		return "reset"
	case NetTrunc:
		return "trunc"
	case Net5xx:
		return "5xx"
	default:
		return fmt.Sprintf("NetKind(%d)", int(k))
	}
}

// NetRule is one entry of a network fault schedule.
type NetRule struct {
	Kind  NetKind
	Prob  float64
	Delay time.Duration // stall length (NetDelay)
	// Start and End bound the rule to a window of request ordinals
	// [Start, End); End 0 means open-ended.
	Start, End uint64
}

// active reports whether the rule applies to request ordinal n.
func (r NetRule) active(n uint64) bool {
	return n >= r.Start && (r.End == 0 || n < r.End)
}

// NetCounters tallies the injected decisions, for reporting and tests.
type NetCounters struct {
	Requests  int64 // requests that passed through the round tripper
	Drops     int64 // connections refused
	Delays    int64 // requests stalled
	Resets    int64 // responses lost after delivery
	Truncated int64 // response bodies cut short
	Answered  int64 // synthetic 5xx answers
}

// NetSchedule is a seeded network fault schedule.
type NetSchedule struct {
	Seed  uint64
	Rules []NetRule
}

// hash01 maps (seed, inputs) to a uniform variate in [0, 1).
func (s *NetSchedule) hash01(vals ...uint64) float64 {
	h := s.Seed ^ 0x9e3779b97f4a7c15
	for _, v := range vals {
		h = mix(h ^ v)
	}
	return float64(h>>11) / float64(1<<53)
}

// ParseNet builds a network schedule from a spec string (see the grammar
// above) and a seed.
func ParseNet(spec string, seed uint64) (*NetSchedule, error) {
	s := &NetSchedule{Seed: seed}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseNetRule(part)
		if err != nil {
			return nil, fmt.Errorf("fault: net rule %q: %w", part, err)
		}
		s.Rules = append(s.Rules, r)
	}
	if len(s.Rules) == 0 {
		return nil, fmt.Errorf("fault: empty net schedule %q", spec)
	}
	return s, nil
}

func parseNetRule(text string) (NetRule, error) {
	body, window, hasWindow := strings.Cut(text, "@")
	fields := strings.Split(body, ":")
	var r NetRule
	switch fields[0] {
	case "drop", "reset", "trunc", "5xx":
		if len(fields) != 2 {
			return r, fmt.Errorf("want %s:<prob>", fields[0])
		}
		p, err := parseProb(fields[1])
		if err != nil {
			return r, err
		}
		r.Prob = p
		switch fields[0] {
		case "drop":
			r.Kind = NetDrop
		case "reset":
			r.Kind = NetReset
		case "trunc":
			r.Kind = NetTrunc
		case "5xx":
			r.Kind = Net5xx
		}
	case "delay":
		if len(fields) != 3 {
			return r, fmt.Errorf("want delay:<prob>:<duration>")
		}
		p, err := parseProb(fields[1])
		if err != nil {
			return r, err
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil || d <= 0 {
			return r, fmt.Errorf("bad delay %q", fields[2])
		}
		r.Kind, r.Prob, r.Delay = NetDelay, p, d
	default:
		return r, fmt.Errorf("unknown net fault kind %q", fields[0])
	}
	if hasWindow {
		start, end, err := parseNetWindow(window)
		if err != nil {
			return r, err
		}
		r.Start, r.End = start, end
		if end != 0 && end <= start {
			return r, fmt.Errorf("empty window")
		}
	}
	return r, nil
}

// parseNetWindow parses "a-b" / "a-" / "a" as a request-ordinal window.
func parseNetWindow(text string) (uint64, uint64, error) {
	startText, endText, hasEnd := strings.Cut(text, "-")
	start, err := strconv.ParseUint(startText, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window start %q", startText)
	}
	if !hasEnd || endText == "" {
		return start, 0, nil
	}
	end, err := strconv.ParseUint(endText, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window end %q", endText)
	}
	return start, end, nil
}

// A RoundTripper injects a NetSchedule into an HTTP client. Decisions key
// on the round tripper's own request ordinal (0, 1, 2, ...), so the fault
// pattern a client observes depends only on the seed and how many
// requests it has made — not on timing. Each injected client should own
// its RoundTripper: sharing one across clients would interleave their
// ordinal streams nondeterministically.
type RoundTripper struct {
	sched *NetSchedule
	base  http.RoundTripper
	seq   atomic.Uint64

	mu       sync.Mutex
	counters NetCounters
}

// NewRoundTripper wraps base (nil: http.DefaultTransport) with the
// schedule's faults.
func NewRoundTripper(sched *NetSchedule, base http.RoundTripper) *RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &RoundTripper{sched: sched, base: base}
}

// Counters returns a snapshot of the injected-decision tallies.
func (t *RoundTripper) Counters() NetCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters
}

func (t *RoundTripper) count(f func(*NetCounters)) {
	t.mu.Lock()
	f(&t.counters)
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper. Rules are evaluated in schedule
// order: every matching delay stalls the request (stalls accumulate), and
// the first matching fate — drop, reset, trunc, 5xx — decides what
// happens to it.
func (t *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.seq.Add(1) - 1
	t.count(func(c *NetCounters) { c.Requests++ })

	var delay time.Duration
	fate := NetKind(-1)
	for i, r := range t.sched.Rules {
		if !r.active(n) || t.sched.hash01(uint64(i), n) >= r.Prob {
			continue
		}
		if r.Kind == NetDelay {
			delay += r.Delay
			continue
		}
		if fate < 0 {
			fate = r.Kind
		}
	}

	if delay > 0 {
		t.count(func(c *NetCounters) { c.Delays++ })
		if err := sleepCtx(req.Context(), delay); err != nil {
			return nil, err
		}
	}

	switch fate {
	case NetDrop:
		t.count(func(c *NetCounters) { c.Drops++ })
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	case Net5xx:
		t.count(func(c *NetCounters) { c.Answered++ })
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:  http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:    io.NopCloser(strings.NewReader("fault: injected 503\n")),
			Request: req,
		}, nil
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch fate {
	case NetReset:
		// The request reached the server — its side effects are real —
		// but the answer is lost on the way back.
		t.count(func(c *NetCounters) { c.Resets++ })
		resp.Body.Close()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	case NetTrunc:
		t.count(func(c *NetCounters) { c.Truncated++ })
		resp.Body = &truncBody{rc: resp.Body, remaining: truncAfterBytes}
		resp.ContentLength = -1
	}
	return resp, nil
}

// truncAfterBytes is where a truncated response body cuts off: enough to
// look like a real partial transfer, short enough to damage any artifact.
const truncAfterBytes = 64

// truncBody yields the first remaining bytes of rc, then fails with
// io.ErrUnexpectedEOF — a cut connection mid-body.
type truncBody struct {
	rc        io.ReadCloser
	remaining int
}

func (b *truncBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err == io.EOF {
		return n, err
	}
	if b.remaining <= 0 {
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncBody) Close() error { return b.rc.Close() }

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
