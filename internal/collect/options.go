package collect

import (
	"context"
	"net"

	"tangledmass/internal/obs"
	"tangledmass/internal/resilient"
)

// options collects the knobs shared by NewServer and NewClient. One Option
// vocabulary serves both constructors — server-only options are no-ops on
// the client and vice versa — which keeps the package's API surface to a
// single uniform New(addr, ...Option) shape.
type options struct {
	observer    *obs.Observer
	retry       *resilient.Retrier
	dial        func(ctx context.Context, addr string) (net.Conn, error)
	keepReports bool
}

// Option configures a collector server or client.
type Option func(*options)

// WithObserver attaches the observer counters and gauges report through.
// Without it the server creates a private observer (so Snapshot and the
// debug handler always work) and the client stays silent.
func WithObserver(o *obs.Observer) Option {
	return func(op *options) { op.observer = o }
}

// WithRetryPolicy overrides the client's retry policy. Nil (the default)
// means 4 attempts with short jittered backoff.
func WithRetryPolicy(r *resilient.Retrier) Option {
	return func(op *options) { op.retry = r }
}

// WithDialFunc overrides the client's transport dialer — the
// fault-injection harness hooks in here. Nil (the default) means TCP with
// a 10s connect timeout.
func WithDialFunc(dial func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return func(op *options) { op.dial = dial }
}

// WithKeepReports makes the server retain every submission (for test
// assertions and offline re-analysis) instead of only the aggregate.
func WithKeepReports() Option {
	return func(op *options) { op.keepReports = true }
}

func buildOptions(opts []Option) options {
	var op options
	for _, o := range opts {
		o(&op)
	}
	return op
}
