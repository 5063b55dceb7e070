// Package campaign drives the complete measurement pipeline end-to-end: for
// every session of a device population it runs a real Netalyzr execution —
// store collection plus TLS probes over loopback — routes the §7 handset's
// traffic through the interception proxy, submits every report to the
// collection back end and streams observed chains to the notary. It is the
// integration harness proving that the substrates compose: population →
// device → netalyzr → (mitm) → collect/notarynet — including under injected
// network faults.
package campaign

import (
	"context"
	"fmt"
	"net"
	"time"

	"tangledmass/internal/collect"
	"tangledmass/internal/faultnet"
	"tangledmass/internal/mitm"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/obs"
	"tangledmass/internal/parallel"
	"tangledmass/internal/population"
	"tangledmass/internal/resilient"
	"tangledmass/internal/tlsnet"
	"tangledmass/internal/wire"
)

// config collects the campaign knobs behind Run's functional options.
type config struct {
	pop           *population.Population
	origin        *tlsnet.Server
	collectorAddr string
	notaryAddr    string
	proxy         *mitm.Proxy
	targets       []tlsnet.HostPort
	concurrency   int
	at            time.Time
	faults        *faultnet.Injector
	probeTimeout  time.Duration
	probeRetry    *resilient.Retrier
	submitRetry   *resilient.Retrier
	observer      *obs.Observer
	now           func() time.Time
}

// Option configures a campaign run.
type Option func(*config)

// WithNotary streams every successful probe's chain to a notarynet server —
// one sensor connection per session, as deployed.
func WithNotary(addr string) Option {
	return func(c *config) { c.notaryAddr = addr }
}

// WithProxy carries the traffic of intercepted handsets through the §7
// interception proxy.
func WithProxy(p *mitm.Proxy) Option {
	return func(c *config) { c.proxy = p }
}

// WithTargets sets the domains each session probes. The default is the full
// Table 6 list; campaigns at fleet scale usually probe a subset.
func WithTargets(targets []tlsnet.HostPort) Option {
	return func(c *config) { c.targets = targets }
}

// WithConcurrency bounds parallel sessions. Values < 1 (and the default)
// mean 8.
func WithConcurrency(n int) Option {
	return func(c *config) { c.concurrency = n }
}

// WithValidationTime pins the chain-validation clock for every session.
func WithValidationTime(at time.Time) Option {
	return func(c *config) { c.at = at }
}

// WithFaults injects the given plan into every session's network path —
// probes, collector submissions, notary observations. Each session gets its
// own decision scope keyed by session ID, so the fault ledger and the
// aggregates are identical across runs with the same plan seed regardless
// of worker interleaving.
func WithFaults(in *faultnet.Injector) Option {
	return func(c *config) { c.faults = in }
}

// WithProbeTimeout bounds one probe attempt (see netalyzr.WithProbeTimeout).
func WithProbeTimeout(d time.Duration) Option {
	return func(c *config) { c.probeTimeout = d }
}

// WithProbeRetry overrides the per-probe retry policy. The campaign
// attaches its observer to the retrier, so retry counters still reconcile
// with the fault ledger.
func WithProbeRetry(r *resilient.Retrier) Option {
	return func(c *config) { c.probeRetry = r }
}

// WithSubmitRetry overrides the collector/notary retry policy. The campaign
// attaches its observer to the retrier.
func WithSubmitRetry(r *resilient.Retrier) Option {
	return func(c *config) { c.submitRetry = r }
}

// WithObserver aggregates the whole run — netalyzr probes, client dials,
// retries, session spans — into the given observer, whose Snapshot lands in
// Stats.Obs. The default is a fresh private observer, so Stats.Obs is
// always populated.
func WithObserver(o *obs.Observer) Option {
	return func(c *config) { c.observer = o }
}

// WithClock injects the observer's clock (deterministic harnesses freeze
// it, making span durations — and therefore the whole Stats.Obs JSON —
// byte-identical across runs). Ignored when WithObserver supplies an
// observer, which already owns its clock.
func WithClock(now func() time.Time) Option {
	return func(c *config) { c.now = now }
}

// Stats summarizes a campaign.
type Stats struct {
	Sessions int
	// Failed counts sessions that could not execute at all.
	Failed int
	// SubmitFailed counts session reports lost even after retries — the
	// campaign degrades and carries on rather than aborting.
	SubmitFailed int
	// ObserveFailed counts notary observations lost even after retries.
	ObserveFailed   int
	UntrustedProbes int
	// MisvalidatedProbes counts untrusted probes that the session's app
	// policy accepted anyway (the trust-evaluation engine's override
	// path) — the campaign-side app-misvalidation signal.
	MisvalidatedProbes int
	// ProbeFaults tallies failed probes across all sessions by their typed
	// kind ("refused", "reset", "timeout", …).
	ProbeFaults map[string]int
	Elapsed     time.Duration
	// Obs is the run's aggregated observability snapshot: every counter,
	// gauge, histogram and span the pipeline emitted under this campaign's
	// observer.
	Obs obs.Snapshot
}

// Run executes the campaign against the fleet. Sessions are independent, so
// they run on a worker pool; each session submits over its own collector
// and notary connections — the deployment shape, where every handset
// execution is an independent network client. ctx bounds the whole run:
// cancelation fails the remaining sessions.
func Run(ctx context.Context, pop *population.Population, origin *tlsnet.Server, collectorAddr string, opts ...Option) (Stats, error) {
	if pop == nil || origin == nil || collectorAddr == "" {
		return Stats{}, fmt.Errorf("campaign: run needs a population, an origin and a collector address")
	}
	cfg := &config{pop: pop, origin: origin, collectorAddr: collectorAddr}
	for _, opt := range opts {
		opt(cfg)
	}
	if cfg.concurrency < 1 {
		cfg.concurrency = 8
	}
	if cfg.observer == nil {
		var obsOpts []obs.Option
		if cfg.now != nil {
			obsOpts = append(obsOpts, obs.WithClock(cfg.now))
		}
		cfg.observer = obs.New(obsOpts...)
	}
	// Caller-supplied retriers report through the campaign's observer too;
	// without this the ledger-reconciliation invariant (obs retry counters
	// == faultnet ledger) would silently exclude custom policies.
	if cfg.probeRetry != nil {
		cfg.probeRetry = cfg.probeRetry.WithObserver(cfg.observer)
	}
	if cfg.submitRetry != nil {
		cfg.submitRetry = cfg.submitRetry.WithObserver(cfg.observer)
	}
	start := time.Now()

	// Sessions fan out on the parallel engine with dynamic load balancing
	// (sessions have uneven network cost) and their results come back in
	// session order; the stats fold below is then a serial loop, so the
	// aggregate is independent of worker interleaving. The pool itself runs
	// under a background context so every session is attempted even after
	// the run context is cancelled — cancellation fails the remaining
	// sessions individually (the degradation Run promises) instead of
	// discarding the finished ones, and the fan-out error is always nil.
	results, _ := parallel.Map(context.Background(), len(cfg.pop.Sessions),
		func(_ context.Context, i int) (sessionResult, error) {
			return cfg.session(ctx, cfg.pop.Sessions[i]), nil
		},
		parallel.WithWorkers(cfg.concurrency))
	var stats Stats
	stats.ProbeFaults = make(map[string]int)
	for _, res := range results {
		stats.Sessions++
		if res.failed {
			stats.Failed++
		}
		if res.submitFailed {
			stats.SubmitFailed++
		}
		stats.ObserveFailed += res.observeFailed
		stats.UntrustedProbes += res.untrusted
		stats.MisvalidatedProbes += res.misvalidated
		for kind, n := range res.faults {
			stats.ProbeFaults[kind] += n
		}
	}
	stats.Elapsed = time.Since(start)
	cfg.observer.Counter(KeySessionsTotal).Add(int64(stats.Sessions))
	cfg.observer.Counter(KeySessionsFailed).Add(int64(stats.Failed))
	cfg.observer.Counter(KeySubmitFailed).Add(int64(stats.SubmitFailed))
	cfg.observer.Counter(KeyObserveFailed).Add(int64(stats.ObserveFailed))
	cfg.observer.Counter(KeyUntrustedProbes).Add(int64(stats.UntrustedProbes))
	cfg.observer.Counter(KeyMisvalidatedProbes).Add(int64(stats.MisvalidatedProbes))
	stats.Obs = cfg.observer.Snapshot()
	return stats, nil
}

// sessionResult is one session's contribution to the campaign stats.
type sessionResult struct {
	failed        bool
	submitFailed  bool
	observeFailed int
	untrusted     int
	misvalidated  int
	faults        map[string]int
}

// session executes one Netalyzr session end to end: probe, submit, observe.
func (cfg *config) session(ctx context.Context, s *population.Session) sessionResult {
	scope := fmt.Sprintf("session-%d", s.ID)
	span := cfg.observer.StartSpan(scope, KeySessionSpan)
	defer span.End()
	rep, err := cfg.runSession(ctx, s, scope)
	if err != nil {
		return sessionResult{failed: true}
	}
	res := sessionResult{
		untrusted:    len(rep.UntrustedProbes()),
		misvalidated: len(rep.MisvalidatedProbes()),
		faults:       rep.FaultTally(),
	}
	if err := cfg.submit(ctx, rep, scope); err != nil {
		res.submitFailed = true
	}
	res.observeFailed = cfg.observe(ctx, rep, scope)
	return res
}

// runSession executes one Netalyzr session for one fleet session record.
func (cfg *config) runSession(ctx context.Context, s *population.Session, scope string) (*netalyzr.Report, error) {
	var dialer tlsnet.Dialer = tlsnet.DirectDialer{Server: cfg.origin}
	if s.Intercepted && cfg.proxy != nil {
		dialer = cfg.proxy
	}
	if cfg.faults != nil {
		dialer = cfg.faults.SiteDialer(dialer, scope)
	}
	opts := []netalyzr.Option{
		netalyzr.WithValidationTime(cfg.at),
		netalyzr.WithProbeTimeout(cfg.probeTimeout),
		netalyzr.WithObserver(cfg.observer),
		netalyzr.WithSession(scope),
		// Each session runs as its handset's drawn app profile, so the
		// trust-evaluation engine inside the client applies the same
		// policy the attribution analysis assumes for this session.
		netalyzr.WithPolicy(s.Policy),
	}
	if cfg.targets != nil {
		opts = append(opts, netalyzr.WithTargets(cfg.targets))
	}
	if cfg.probeRetry != nil {
		opts = append(opts, netalyzr.WithRetryPolicy(cfg.probeRetry))
	}
	client, err := netalyzr.New(s.Handset.Device, dialer, opts...)
	if err != nil {
		return nil, err
	}
	return client.Run(ctx)
}

// clientDial wraps the plain transport in the fault plan under this
// session's scope and the given logical key.
func (cfg *config) clientDial(scope, key string) func(ctx context.Context, addr string) (net.Conn, error) {
	if cfg.faults == nil {
		return wire.DialTCP
	}
	return cfg.faults.DialFunc(scope, key, wire.DialTCP)
}

// submit delivers one report over a fresh collector connection.
func (cfg *config) submit(ctx context.Context, rep *netalyzr.Report, scope string) error {
	opts := []collect.Option{
		collect.WithDialFunc(cfg.clientDial(scope, "collector")),
		collect.WithObserver(cfg.observer),
	}
	if cfg.submitRetry != nil {
		opts = append(opts, collect.WithRetryPolicy(cfg.submitRetry))
	}
	cl, err := collect.NewClient(ctx, cfg.collectorAddr, opts...)
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Submit(ctx, rep)
}

// observe streams the session's successfully captured chains to the notary,
// returning how many observations were lost after retries. The breaker is
// disabled: its cooldown is wall-clock, which would make outcomes depend on
// scheduling rather than the fault plan.
func (cfg *config) observe(ctx context.Context, rep *netalyzr.Report, scope string) (lost int) {
	if cfg.notaryAddr == "" {
		return 0
	}
	var captured []netalyzr.ProbeResult
	for _, p := range rep.Probes {
		if p.Err == nil && len(p.Chain) > 0 {
			captured = append(captured, p)
		}
	}
	if len(captured) == 0 {
		return 0
	}
	opts := []notarynet.Option{
		notarynet.WithoutBreaker(),
		notarynet.WithDialFunc(cfg.clientDial(scope, "notary")),
		notarynet.WithObserver(cfg.observer),
	}
	if cfg.submitRetry != nil {
		opts = append(opts, notarynet.WithRetryPolicy(cfg.submitRetry))
	}
	nc, err := notarynet.NewClient(ctx, cfg.notaryAddr, opts...)
	if err != nil {
		return len(captured)
	}
	defer nc.Close()
	for _, p := range captured {
		if err := nc.Observe(ctx, p.Chain, p.Target.Port); err != nil {
			lost++
		}
	}
	return lost
}
