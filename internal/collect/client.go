package collect

import (
	"context"
	"fmt"

	"tangledmass/internal/netalyzr"
	"tangledmass/internal/wire"
)

// Client submits session reports over the resilient wire client.
// Sequential use only. Submits carry idempotency IDs the server
// deduplicates, so a retry after a lost response does not double-count.
type Client struct {
	wc *wire.Client
}

// NewClient connects to a collector. The initial connect already runs
// under the retry policy, bounded by ctx. Options: WithTimeout,
// WithRetryPolicy, WithDialFunc, WithObserver.
func NewClient(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	op := buildOptions(opts)
	wc, err := wire.Dial(ctx, addr, wire.Config{
		Name:     "collect",
		Timeout:  op.timeout,
		Dial:     op.dial,
		Retry:    op.retry,
		Observer: op.observer,
		Dialed: func(err error) {
			op.observer.Counter(KeyClientDials).Inc()
			if err != nil {
				op.observer.Counter(KeyClientDialErrors).Inc()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return &Client{wc: wc}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.wc.Close() }

// roundTrip sends one request under a fresh idempotency ID and returns its
// response.
func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	req.ID = c.wc.NextID()
	return wire.Call(ctx, c.wc, req, func(r response) (bool, string) { return r.OK, r.Error })
}

// Submit sends one session report.
func (c *Client) Submit(ctx context.Context, r *netalyzr.Report) error {
	w := FromReport(r)
	_, err := c.roundTrip(ctx, request{Op: "submit", Report: &w})
	return err
}

// SubmitWire sends a pre-converted report.
func (c *Client) SubmitWire(ctx context.Context, w WireReport) error {
	_, err := c.roundTrip(ctx, request{Op: "submit", Report: &w})
	return err
}

// Summary fetches the collector's aggregate.
func (c *Client) Summary(ctx context.Context) (Summary, error) {
	resp, err := c.roundTrip(ctx, request{Op: "summary"})
	if err != nil {
		return Summary{}, err
	}
	if resp.Summary == nil {
		return Summary{}, fmt.Errorf("collect: summary missing from response")
	}
	return *resp.Summary, nil
}
