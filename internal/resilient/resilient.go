// Package resilient is the retry/backoff/circuit-breaker layer every
// network path of the reproduction threads through. The paper's 15,970
// Netalyzr sessions came from handsets on lossy mobile networks, where
// refused connects, mid-stream resets and stalled handshakes are the normal
// case; this package gives the clients one shared vocabulary for surviving
// them: error classification (transient vs permanent), capped exponential
// backoff with seeded jitter, per-retry time budgets, and a small
// consecutive-failure circuit breaker.
//
// Determinism: jitter randomness comes from a seeded stats.Source and all
// clock access flows through the injected Clock (see clock.go), so a retry
// schedule is a pure function of (seed, failure sequence). Jitter affects
// timing only, never outcomes, which is what lets the chaos harness assert
// bit-identical aggregates across runs.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"tangledmass/internal/obs"
	"tangledmass/internal/stats"
)

// Class partitions errors by retryability.
type Class int

const (
	// Permanent errors will not heal with time: protocol violations, server
	// rejections, bad input. Retrying them wastes the budget.
	Permanent Class = iota
	// Transient errors are expected under degraded networks and safe to
	// retry: timeouts, resets, refused connects, truncated streams.
	Transient
)

// classified forces a class onto a wrapped error.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// MarkTransient wraps err so Classify reports it transient regardless of
// its underlying type — for conditions like a cleanly closed connection,
// where the error value alone cannot carry the retryability.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Transient}
}

// MarkPermanent wraps err so Classify reports it permanent — for protocol
// rejections that arrive over a perfectly healthy transport.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Permanent}
}

// Classify reports whether err is worth retrying. Explicit marks win; then
// timeouts, deadline expiries, connection resets/refusals/aborts, broken
// pipes and truncated streams are transient; everything else — including an
// open circuit breaker — is permanent.
func Classify(err error) Class {
	if err == nil {
		return Permanent
	}
	var cl *classified
	if errors.As(err, &cl) {
		return cl.class
	}
	if errors.Is(err, ErrOpen) {
		return Permanent
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return Transient
	}
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE):
		return Transient
	}
	return Permanent
}

// Kind returns a short stable label for err — the typed vocabulary the
// per-session fault ledgers and collector aggregates count by. The labels
// deliberately avoid raw error text, which can embed ephemeral addresses.
func Kind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOpen):
		return "breaker"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "refused"
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE):
		return "reset"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return "timeout"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	if Classify(err) == Transient {
		return "transient"
	}
	return "error"
}

// Policy bounds a retry loop. The zero value means the defaults noted on
// each field.
type Policy struct {
	// MaxAttempts caps the number of tries, first attempt included.
	// Values < 1 mean 4.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt. Zero means 20ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep. Zero means 2s.
	MaxDelay time.Duration
	// Multiplier grows the delay per attempt. Values <= 1 mean 2.
	Multiplier float64
	// Jitter adds a uniformly drawn fraction of each delay, in [0,1].
	// Zero means 0.2; negative means no jitter.
	Jitter float64
	// Budget caps total elapsed time across attempts and sleeps. Zero
	// means no total budget.
	Budget time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 20 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Retrier executes operations under a Policy. It is safe for concurrent
// use; jitter draws are serialized on an internal mutex.
type Retrier struct {
	policy Policy
	clock  Clock
	obs    *obs.Observer
	seed   int64

	mu  sync.Mutex
	src *stats.Source // seeded on the first jittered backoff
}

// NewRetrier builds a retrier on the system clock. The seed drives jitter
// only — it shapes timing, never outcomes. The random source is created on
// the first jittered backoff, so a retrier that never retries costs no
// source, and the draws are the same whenever the first retry comes.
func NewRetrier(p Policy, seed int64) *Retrier {
	return &Retrier{policy: p.withDefaults(), clock: SystemClock(), seed: seed}
}

// WithClock substitutes the clock (tests, chaos harnesses) and returns the
// retrier for chaining.
func (r *Retrier) WithClock(c Clock) *Retrier {
	r.clock = c
	return r
}

// WithObserver attaches an observer the retrier reports attempt, retry and
// failure counters through (see keys.go), returning the retrier for
// chaining. Attach before the retrier is shared across goroutines. A nil
// observer leaves the retrier silent.
func (r *Retrier) WithObserver(o *obs.Observer) *Retrier {
	r.obs = o
	return r
}

// Do runs op until it succeeds, returns a permanent error, the policy is
// exhausted, or ctx is done. op receives the 1-based attempt number. The
// retry time budget derives from the tighter of the policy's Budget and
// ctx's deadline, so a caller-scoped context bounds the whole loop — this
// is the one place deadlines and retries meet. The returned error is the
// last attempt's, wrapped with the attempt count when retries ran out.
func (r *Retrier) Do(ctx context.Context, op func(attempt int) error) error {
	start := r.clock.Now()
	budget := r.policy.Budget
	if dl, ok := ctx.Deadline(); ok {
		// The deadline is wall-clock by construction; measuring the
		// remainder against the injected clock keeps fake-clock tests
		// coherent as long as they also own the context's lifetime.
		if rem := dl.Sub(start); budget <= 0 || rem < budget {
			budget = rem
		}
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("resilient: canceled before attempt %d: %w", attempt, err)
		}
		r.obs.Counter(KeyAttempts).Inc()
		err := op(attempt)
		if err == nil {
			return nil
		}
		if Classify(err) == Permanent {
			r.obs.Counter(KeyFailurePermanent).Inc()
			return err
		}
		r.obs.Counter(KeyFailureTransient).Inc()
		if attempt >= r.policy.MaxAttempts {
			r.obs.Counter(KeyExhausted).Inc()
			return fmt.Errorf("resilient: %d attempts exhausted: %w", attempt, err)
		}
		d := r.delay(attempt)
		if budget > 0 && r.clock.Now().Sub(start)+d > budget {
			r.obs.Counter(KeyBudgetExhausted).Inc()
			return fmt.Errorf("resilient: retry budget %s exhausted after %d attempts: %w", budget, attempt, err)
		}
		r.obs.Counter(KeyRetries).Inc()
		r.clock.Sleep(d)
	}
}

// delay computes the backoff before attempt+1: capped exponential growth
// plus a seeded jitter fraction.
func (r *Retrier) delay(attempt int) time.Duration {
	d := float64(r.policy.BaseDelay) * math.Pow(r.policy.Multiplier, float64(attempt-1))
	if ceil := float64(r.policy.MaxDelay); d > ceil {
		d = ceil
	}
	if j := r.policy.Jitter; j > 0 {
		r.mu.Lock()
		if r.src == nil {
			r.src = stats.NewSource(r.seed)
		}
		f := r.src.Float64()
		r.mu.Unlock()
		d += d * j * f
	}
	return time.Duration(d)
}
