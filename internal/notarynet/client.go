package notarynet

import (
	"context"
	"crypto/x509"
	"time"

	"tangledmass/internal/resilient"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/wire"
)

// Client talks to a notarynet server over the resilient wire client. It
// is safe for sequential use only (the protocol is request/response per
// line); use one client per goroutine. Mutating requests carry
// idempotency IDs the server deduplicates, so a retry after a lost
// response does not double-observe.
type Client struct {
	wc *wire.Client
}

// NewClient connects to a server. The initial connect already runs under
// the retry policy, bounded by ctx. Options: WithTimeout, WithRetryPolicy,
// WithoutBreaker, WithDialFunc, WithObserver. The default circuit breaker
// opens after 5 consecutive transport failures, for a second.
func NewClient(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	op := buildOptions(opts)
	var breaker *resilient.Breaker
	if !op.disableBreaker {
		breaker = resilient.NewBreaker(5, time.Second).WithObserver(op.observer)
	}
	wc, err := wire.Dial(ctx, addr, wire.Config{
		Name:     "notarynet",
		Timeout:  op.timeout,
		Dial:     op.dial,
		Retry:    op.retry,
		Observer: op.observer,
		Breaker:  breaker,
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
// response. Every request carries an ID so the server can deduplicate
// re-sent mutations.
func (c *Client) roundTrip(ctx context.Context, req Request) (Response, error) {
	req.ID = c.wc.NextID()
	return wire.Call(ctx, c.wc, req, func(r Response) (bool, string) { return r.OK, r.Error })
}

// Observe submits one observed chain.
func (c *Client) Observe(ctx context.Context, chain []*x509.Certificate, port int) error {
	_, err := c.roundTrip(ctx, Request{Op: "observe", Chain: EncodeChain(chain), Port: port})
	return err
}

// ChainObservation is one chain for ObserveBatch.
type ChainObservation struct {
	Chain []*x509.Certificate
	Port  int
}

// ObserveBatch submits many observed chains in one request, amortizing the
// round trip. The whole batch shares one idempotency ID: a retry after a
// lost response is applied exactly once end to end (and, against the
// sharded router, exactly once per shard).
func (c *Client) ObserveBatch(ctx context.Context, batch []ChainObservation) error {
	if len(batch) == 0 {
		return nil
	}
	items := make([]BatchItem, len(batch))
	for i, o := range batch {
		items[i] = BatchItem{Chain: EncodeChain(o.Chain), Port: o.Port}
	}
	_, err := c.roundTrip(ctx, Request{Op: "observe_batch", Batch: items})
	return err
}

// ObserveCA submits one CA certificate seen in traffic (non-leaf).
func (c *Client) ObserveCA(ctx context.Context, cert *x509.Certificate, port int) error {
	_, err := c.roundTrip(ctx, Request{Op: "observe_ca", Cert: EncodeCert(cert), Port: port})
	return err
}

// HasRecord queries whether the server knows the certificate.
func (c *Client) HasRecord(ctx context.Context, cert *x509.Certificate) (bool, error) {
	resp, err := c.roundTrip(ctx, Request{Op: "has_record", Cert: EncodeCert(cert)})
	if err != nil {
		return false, err
	}
	return resp.Recorded, nil
}

// Stats is the server's database summary.
type Stats struct {
	Unique    int
	Unexpired int
	Sessions  int64
}

// Stats fetches the database summary.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	resp, err := c.roundTrip(ctx, Request{Op: "stats"})
	if err != nil {
		return Stats{}, err
	}
	return Stats{Unique: resp.Unique, Unexpired: resp.Unexpired, Sessions: resp.Sessions}, nil
}

// ValidateResult is a remote validation outcome.
type ValidateResult struct {
	// Validated is how many Notary leaves chain to the submitted roots.
	Validated int
	// PerRoot aligns with the submitted root order.
	PerRoot []int
}

// Validate runs the Table 3/4 analysis server-side for the given store.
func (c *Client) Validate(ctx context.Context, store *rootstore.Store) (ValidateResult, error) {
	resp, err := c.roundTrip(ctx, Request{
		Op:        "validate",
		StoreName: store.Name(),
		Roots:     EncodeChain(store.Certificates()),
	})
	if err != nil {
		return ValidateResult{}, err
	}
	return ValidateResult{Validated: resp.Validated, PerRoot: resp.PerRootCount}, nil
}
