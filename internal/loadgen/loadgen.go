// Package loadgen drives sustained synthetic ingest traffic at a notary
// service — the measurement half of the SLO gate. It generates a
// deterministic leaf population (the same tlsnet world the analyses use),
// partitions a session budget across concurrent clients, and streams
// observe_batch requests through the resilient notarynet client, so every
// retry, breaker and fault-injection behavior the production sensors have
// is exercised under load. Per-request latency lands in a histogram the
// gate reads p99 from.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tangledmass/internal/faultnet"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/obs"
	"tangledmass/internal/parallel"
	"tangledmass/internal/resilient"
	"tangledmass/internal/tlsnet"
	"tangledmass/internal/wire"
)

// Observability keys.
const (
	// KeyObserveLatency is the per-request observe_batch round-trip
	// latency histogram, in milliseconds, measured at the client — it
	// includes retries, so a flaky service shows up as tail latency.
	KeyObserveLatency = "loadgen.observe.latency_ms"
	// KeyRequests counts observe_batch requests issued.
	KeyRequests = "loadgen.requests.total"
	// KeyRequestErrors counts requests that failed after all retries.
	KeyRequestErrors = "loadgen.requests.failed"
	// KeySessionsSent counts observations handed to the wire.
	KeySessionsSent = "loadgen.sessions.sent"
	// KeySessionsAcked counts observations the service acknowledged.
	KeySessionsAcked = "loadgen.sessions.acked"
)

// LatencyBuckets bound the client-side latency histogram: loopback
// round-trips sit well under a millisecond, real deployments in the tens.
var LatencyBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// Config parameterizes one load run.
type Config struct {
	// Addr is the notarynet service address.
	Addr string
	// Sessions is the total observation budget. Default 1000.
	Sessions int
	// Clients is the number of concurrent clients. Default 4.
	Clients int
	// Batch is observations per observe_batch request. Default 64.
	Batch int
	// Rate throttles to this many observations/second across all clients.
	// Zero or negative means unthrottled.
	Rate float64
	// Seed drives the synthetic leaf population. Default 1.
	Seed int64
	// NumLeaves is the synthetic leaf population size. Default 300.
	NumLeaves int
	// Faults, when non-nil, injects faults on every client dial path —
	// refused connects, resets, stalls — so the gate measures the
	// resilient path, not the happy path.
	Faults *faultnet.Injector
	// Observer receives the latency histogram and counters. Nil means a
	// private one; either way the Report carries the latency snapshot.
	Observer *obs.Observer
	// Timeout bounds each request round trip. Default 10s.
	Timeout time.Duration
}

func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumLeaves <= 0 {
		c.NumLeaves = 300
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Observer == nil {
		c.Observer = obs.New()
	}
	return c
}

// Report is the outcome of one load run.
type Report struct {
	// Sessions is the configured observation budget.
	Sessions int `json:"sessions"`
	// Sent is how many observations were handed to the wire.
	Sent int `json:"sent"`
	// Acked is how many observations the service acknowledged.
	Acked int `json:"acked"`
	// FailedRequests is how many requests failed after all retries.
	FailedRequests int `json:"failed_requests"`
	// Requests is how many observe_batch requests were issued.
	Requests int `json:"requests"`
	// ElapsedMs is the wall-clock duration of the run.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Latency is the client-side per-request latency distribution.
	Latency obs.HistogramSnapshot `json:"latency"`
}

// P99 is the 99th-percentile request latency in milliseconds.
func (r *Report) P99() float64 { return r.Latency.Quantile(0.99) }

// ErrorRate is the fraction of requests that failed after retries.
func (r *Report) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.FailedRequests) / float64(r.Requests)
}

// Throughput is acknowledged observations per second.
func (r *Report) Throughput() float64 {
	if r.ElapsedMs <= 0 {
		return 0
	}
	return float64(r.Acked) / (r.ElapsedMs / 1000)
}

// SLO is the gate: zero values mean "not gated".
type SLO struct {
	// MaxP99Ms fails the gate when client-side p99 exceeds it.
	MaxP99Ms float64 `json:"max_p99_ms,omitempty"`
	// MaxErrorRate fails the gate when the request error rate exceeds it.
	MaxErrorRate float64 `json:"max_error_rate,omitempty"`
}

// Check returns the SLO violations, empty when the report passes.
func (r *Report) Check(slo SLO) []string {
	var v []string
	if slo.MaxP99Ms > 0 {
		if p99 := r.P99(); p99 > slo.MaxP99Ms {
			v = append(v, fmt.Sprintf("p99 latency %.3fms exceeds SLO %.3fms", p99, slo.MaxP99Ms))
		}
	}
	if rate := r.ErrorRate(); rate > slo.MaxErrorRate {
		v = append(v, fmt.Sprintf("error rate %.4f exceeds budget %.4f (%d/%d requests failed)",
			rate, slo.MaxErrorRate, r.FailedRequests, r.Requests))
	}
	return v
}

// Run executes one load run against cfg.Addr and reports what happened.
// The run itself succeeding is separate from the service meeting its SLO:
// request failures are counted, not fatal, so the gate can judge the
// error budget. Run errors mean the harness could not do its job at all
// (no world, no first connection).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	c := cfg.withDefaults()
	if c.Addr == "" {
		return nil, errors.New("loadgen: no service address")
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: c.Seed, NumLeaves: c.NumLeaves})
	if err != nil {
		return nil, fmt.Errorf("loadgen: building world: %w", err)
	}
	leaves := world.Leaves()
	if len(leaves) == 0 {
		return nil, errors.New("loadgen: world has no leaves")
	}

	// One shared pacer spaces requests across all clients so Rate is a
	// cluster-wide observations/sec budget, converted to request slots.
	pacer := resilient.NewPacer(c.Rate / float64(c.Batch))

	var sent, acked, failed, requests atomic.Int64
	start := time.Now()
	err = parallel.ForEach(ctx, c.Clients, func(ctx context.Context, ci int) error {
		// Contiguous partition: client ci owns sessions [lo, hi).
		lo := ci * c.Sessions / c.Clients
		hi := (ci + 1) * c.Sessions / c.Clients
		if lo >= hi {
			return nil
		}
		opts := []notarynet.Option{
			notarynet.WithTimeout(c.Timeout),
			notarynet.WithObserver(c.Observer),
			// The breaker would turn injected fault bursts into cascades of
			// instant rejections; the gate wants every request measured.
			notarynet.WithoutBreaker(),
		}
		if c.Faults != nil {
			key := fmt.Sprintf("client-%d", ci)
			opts = append(opts, notarynet.WithDialFunc(c.Faults.DialFunc("loadgen", key, wire.DialTCP)))
		}
		client, err := notarynet.NewClient(ctx, c.Addr, opts...)
		if err != nil {
			return fmt.Errorf("loadgen: client %d connecting: %w", ci, err)
		}
		defer client.Close()
		for at := lo; at < hi; at += c.Batch {
			end := at + c.Batch
			if end > hi {
				end = hi
			}
			batch := make([]notarynet.ChainObservation, 0, end-at)
			for k := at; k < end; k++ {
				leaf := leaves[k%len(leaves)]
				batch = append(batch, notarynet.ChainObservation{Chain: leaf.Chain, Port: leaf.Port})
			}
			if err := pacer.Wait(ctx); err != nil {
				return err
			}
			reqStart := time.Now()
			rerr := client.ObserveBatch(ctx, batch)
			ms := float64(time.Since(reqStart)) / float64(time.Millisecond)
			c.Observer.Histogram(KeyObserveLatency, LatencyBuckets).Observe(ms)
			requests.Add(1)
			sent.Add(int64(len(batch)))
			c.Observer.Counter(KeyRequests).Inc()
			c.Observer.Counter(KeySessionsSent).Add(int64(len(batch)))
			if rerr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				failed.Add(1)
				c.Observer.Counter(KeyRequestErrors).Inc()
				continue
			}
			acked.Add(int64(len(batch)))
			c.Observer.Counter(KeySessionsAcked).Add(int64(len(batch)))
		}
		return nil
	}, parallel.WithWorkers(c.Clients))
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return nil, err
	}
	return &Report{
		Sessions:       c.Sessions,
		Sent:           int(sent.Load()),
		Acked:          int(acked.Load()),
		FailedRequests: int(failed.Load()),
		Requests:       int(requests.Load()),
		ElapsedMs:      elapsed,
		Latency:        c.Observer.Snapshot().Hists[KeyObserveLatency],
	}, nil
}
