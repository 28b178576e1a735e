package resilience

import (
	"context"
	"fmt"
	"time"
)

// Policy is a bounded retry schedule with exponential backoff and
// deterministic jitter. The zero value never retries (one attempt).
type Policy struct {
	// MaxAttempts is the total number of tries, first included; values
	// below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff; 0 means uncapped.
	MaxDelay time.Duration
	// Multiplier grows the backoff between retries; values <= 1 mean 2.
	Multiplier float64
}

// DefaultPolicy is the RPC client's standard schedule: three attempts with
// 5ms base backoff doubling to a 250ms cap.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Multiplier: 2}
}

// splitmix64 is the deterministic jitter generator: a full-period mixer,
// so equal seeds give equal backoff schedules (and tests stay exact).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Backoff returns the delay before retry number n (1-based), with equal
// jitter: half the exponential delay fixed, half drawn deterministically
// from the seed, so concurrent retriers with distinct seeds decorrelate
// while every run of one seed reproduces exactly.
func (p Policy) Backoff(n int, seed uint64) time.Duration {
	if n < 1 || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= mult
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	// Equal jitter in [d/2, d): fixed half plus a seeded fraction.
	frac := float64(splitmix64(seed+uint64(n))>>11) / float64(1<<53)
	return time.Duration(d/2 + frac*d/2)
}

// Do runs fn until it succeeds, fails permanently, exhausts the attempt
// budget, or the context is cancelled. It returns the number of attempts
// made and the final error. Backoff sleeps are cut short by cancellation,
// which is reported as the context's error.
func (p Policy) Do(ctx context.Context, seed uint64, fn func() error) (int, error) {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for n := 1; ; n++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return n - 1, err
		}
		err = fn()
		if err == nil {
			return n, nil
		}
		if n >= attempts || Classify(err) != Transient {
			return n, err
		}
		if d := p.Backoff(n, seed); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				// The cancellation dominates — Classify checks the context
				// sentinels before anything else — but the last attempt's
				// error must stay reachable by errors.Is/As too, so both
				// branches are wrapped with %w (the errtaxonomy analyzer
				// flags the stringifying %v this replaces).
				return n, fmt.Errorf("retry interrupted: %w (last attempt: %w)", ctx.Err(), err)
			case <-t.C:
			}
		}
	}
}
