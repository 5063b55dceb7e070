package campaign

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/collect"
	"tangledmass/internal/faultnet"
	"tangledmass/internal/mitm"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/population"
	"tangledmass/internal/resilient"
	"tangledmass/internal/tlsnet"
)

// chaosPlan is the fault schedule the chaos run executes: roughly a quarter
// of all dials are disturbed, covering every fault kind.
func chaosPlan(seed int64) *faultnet.Plan {
	return &faultnet.Plan{
		Seed:               seed,
		RefuseProb:         0.08,
		ResetProb:          0.06,
		TruncateProb:       0.04,
		CorruptProb:        0.03,
		StallProb:          0.04,
		LatencyProb:        0.05,
		LatencyAmount:      time.Millisecond,
		StallFor:           2 * time.Millisecond,
		ResetAfterBytes:    24,
		TruncateAfterBytes: 12,
	}
}

// oneShardNotary is the notary store the campaign tests serve: an
// in-memory one-shard cluster, what notaryd serves by default.
func oneShardNotary(t *testing.T) *notaryshard.Cluster {
	t.Helper()
	cl, err := notaryshard.New(certgen.Epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// chaosOutcome captures everything two identical chaos runs must agree on.
type chaosOutcome struct {
	stats      Stats
	summary    collect.Summary
	ledger     string
	faultTotal int
	dialTotal  int
	validated  notarynet.ValidateResult
	successful int
	validCount int
	// obsJSON is the run's serialized observability snapshot — the
	// byte-identity acceptance artifact.
	obsJSON []byte
}

// deviceValidationRate is the fraction of successful probes that validated
// against the device store — the aggregate faults must not skew.
func (o chaosOutcome) deviceValidationRate() float64 {
	if o.successful == 0 {
		return 0
	}
	return float64(o.validCount) / float64(o.successful)
}

// runChaosCampaign executes the full pipeline — tlsnet world → netalyzr
// sessions (the §7 handset through the proxy) → collect → notary validation
// — under the given fault plan (nil means fault-free baseline). The
// observer clock is frozen so the snapshot JSON is byte-identical across
// runs with the same seed.
func runChaosCampaign(t *testing.T, plan *faultnet.Plan) chaosOutcome {
	t.Helper()
	u := cauniverse.Default()
	pop, err := population.Generate(population.Config{Seed: 2, Universe: u, SessionScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: 2, Universe: u, NumLeaves: 10})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := tlsnet.NewSites(world)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := tlsnet.ServeSites(sites)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := mitm.NewProxy(u.InterceptionRoot().Issued, u.Generator(),
		tlsnet.DirectDialer{Server: origin}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
	if err != nil {
		t.Fatal(err)
	}
	collector, err := collect.NewServer("127.0.0.1:0", collect.WithKeepReports())
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	nsrv, err := notarynet.NewServer(oneShardNotary(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrv.Close()

	var inj *faultnet.Injector
	if plan != nil {
		inj = faultnet.New(*plan)
	}
	seed := int64(0)
	if plan != nil {
		seed = plan.Seed
	}
	opts := []Option{
		WithNotary(nsrv.Addr()),
		WithProxy(proxy),
		WithTargets([]tlsnet.HostPort{
			{Host: "gmail.com", Port: 443},
			{Host: "www.google.com", Port: 443},
			{Host: "www.twitter.com", Port: 443},
		}),
		WithConcurrency(8),
		WithValidationTime(certgen.Epoch),
		WithProbeTimeout(2 * time.Second),
		WithProbeRetry(resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		}, seed)),
		WithSubmitRetry(resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		}, seed)),
		// Frozen clock: span durations are all zero, so the snapshot JSON
		// carries no wall-clock and must reproduce byte for byte.
		WithClock(func() time.Time { return certgen.Epoch }),
	}
	if inj != nil {
		opts = append(opts, WithFaults(inj))
	}
	stats, err := Run(context.Background(), pop, origin, collector.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}

	out := chaosOutcome{stats: stats, summary: collector.Summary()}
	out.stats.Elapsed = 0 // wall-clock, excluded from determinism checks
	out.obsJSON, err = stats.Obs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range collector.Reports() {
		for _, p := range rep.Probes {
			if p.Err != "" {
				continue
			}
			out.successful++
			if p.DeviceValidated {
				out.validCount++
			}
		}
	}
	if inj != nil {
		out.ledger = inj.String()
		out.faultTotal = inj.Total()
		for _, e := range inj.Dials() {
			out.dialTotal += e.Count
		}
	}
	// Server-side notary validation (Table 3/4 path) over what the chaos
	// run managed to observe.
	nc, err := notarynet.NewClient(context.Background(), nsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	out.validated, err = nc.Validate(context.Background(), u.AggregatedAndroid())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitGoroutines polls until the goroutine count drops back to at most
// baseline plus slack, failing the test if it never does — a leaked relay
// or handler goroutine would show up here.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d at baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// obsClientDials sums the per-package client/probe dial counters — every
// dial the campaign's network paths attempted.
func obsClientDials(s Stats) int64 {
	return s.Obs.Counters[netalyzr.KeyDialsTotal] +
		s.Obs.Counters[collect.KeyClientDials] +
		s.Obs.Counters[notarynet.KeyClientDials]
}

// TestChaosCampaignDeterministic is the capstone: the full pipeline under a
// faultnet plan, run twice with the same seed, must produce identical fault
// ledgers, identical aggregates and a byte-identical observability snapshot
// — and the faults must not skew what the measurement concludes, only how
// much of it survives.
func TestChaosCampaignDeterministic(t *testing.T) {
	baseline := runtime.NumGoroutine()

	clean := runChaosCampaign(t, nil)
	a := runChaosCampaign(t, chaosPlan(1729))
	b := runChaosCampaign(t, chaosPlan(1729))
	waitGoroutines(t, baseline)

	// Same seed → byte-identical fault ledger.
	if a.ledger != b.ledger {
		t.Errorf("fault ledgers diverged across identical runs:\n%s\nvs\n%s", a.ledger, b.ledger)
	}
	// …and identical aggregates, wall-clock aside.
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Errorf("stats diverged:\n%+v\nvs\n%+v", a.stats, b.stats)
	}
	// The serialized snapshot reproduces byte for byte — the debug-endpoint
	// artifact two identical runs must agree on exactly.
	if !bytes.Equal(a.obsJSON, b.obsJSON) {
		t.Errorf("obs snapshots diverged:\n%s\nvs\n%s", a.obsJSON, b.obsJSON)
	}
	if !reflect.DeepEqual(a.summary, b.summary) {
		t.Errorf("collector summaries diverged:\n%+v\nvs\n%+v", a.summary, b.summary)
	}
	if !reflect.DeepEqual(a.validated, b.validated) {
		t.Errorf("notary validation diverged: %+v vs %+v", a.validated, b.validated)
	}

	// The plan actually disturbed the run: at least 10% of dials faulted.
	if a.dialTotal == 0 || a.faultTotal == 0 {
		t.Fatalf("no fault activity recorded (dials=%d faults=%d)", a.dialTotal, a.faultTotal)
	}
	if rate := float64(a.faultTotal) / float64(a.dialTotal); rate < 0.10 {
		t.Errorf("fault rate = %.3f, want >= 0.10\n%s", rate, a.ledger)
	}

	// Reconciliation: the observability layer and the fault ledger counted
	// the same world. Every dial any client attempted passed through the
	// injector exactly once, so the obs dial counters must equal the
	// ledger's dial total exactly — for the clean run too (ledger absent,
	// but the counters still cover every dial).
	if got := obsClientDials(a.stats); got != int64(a.dialTotal) {
		t.Errorf("obs dial counters = %d, ledger dial total = %d — they must reconcile exactly",
			got, a.dialTotal)
	}

	// Graceful degradation: every session ran, and the collector heard from
	// almost all of them despite the faults.
	if a.stats.Sessions != clean.stats.Sessions || a.stats.Failed != 0 {
		t.Errorf("chaos stats = %+v, want all %d sessions to run", a.stats, clean.stats.Sessions)
	}
	if a.summary.Sessions == 0 {
		t.Fatal("collector heard nothing under faults")
	}
	lost := float64(a.stats.SubmitFailed) / float64(a.stats.Sessions)
	if lost > 0.05 {
		t.Errorf("%.1f%% of submissions lost — retries are not absorbing the plan", 100*lost)
	}

	// The faults cost coverage, not correctness: the device-validation rate
	// over surviving probes stays within 2 points of the fault-free run.
	cleanRate := clean.deviceValidationRate()
	chaosRate := a.deviceValidationRate()
	if math.Abs(cleanRate-chaosRate) > 0.02 {
		t.Errorf("validation rate skewed: %.4f fault-free vs %.4f under faults", cleanRate, chaosRate)
	}
	if clean.successful == a.successful && a.faultTotal > 0 {
		t.Logf("note: all probes survived despite %d faults (retries absorbed everything)", a.faultTotal)
	}

	// Fault tallies reached the collector as typed kinds, never free text
	// only (the summary's map keys are resilient.Kind labels).
	for kind := range a.summary.ProbeFaults {
		switch kind {
		case "refused", "reset", "timeout", "eof", "transient", "breaker", "error":
		default:
			t.Errorf("collector saw unexpected fault kind %q", kind)
		}
	}
	t.Logf("chaos ledger:\n%s", a.ledger)
}

// TestObsRetryCountersMatchLedger pins the reconciliation invariant in its
// sharpest form: under a refuse-only plan every injected fault is a refused
// dial, every refused dial fails exactly one operation attempt as
// transient, and nothing else on loopback fails — so the observer's
// transient-failure counter must equal the fault ledger's total exactly,
// and the dial-error counters must equal the refusal count.
func TestObsRetryCountersMatchLedger(t *testing.T) {
	inj := faultnet.New(faultnet.Plan{Seed: 99, RefuseProb: 0.25})
	out := runRefuseOnlyCampaign(t, inj)

	if inj.Total() == 0 {
		t.Fatal("no refusals fired; the plan exercised nothing")
	}
	if got := out.Obs.Counters[resilient.KeyFailureTransient]; got != int64(inj.Total()) {
		t.Errorf("%s = %d, ledger total = %d — every injected refusal is exactly one transient failure",
			resilient.KeyFailureTransient, got, inj.Total())
	}
	dialErrors := out.Obs.Counters[netalyzr.KeyDialErrors] +
		out.Obs.Counters[collect.KeyClientDialErrors] +
		out.Obs.Counters[notarynet.KeyClientDialErrors]
	if dialErrors != int64(inj.Total()) {
		t.Errorf("dial-error counters = %d, ledger refusals = %d — loopback only fails when injected",
			dialErrors, inj.Total())
	}
	var ledgerDials int
	for _, e := range inj.Dials() {
		ledgerDials += e.Count
	}
	if got := obsClientDials(out); got != int64(ledgerDials) {
		t.Errorf("obs dial counters = %d, ledger dial total = %d", got, ledgerDials)
	}
	// Retries follow from failures: with retry budget left, every transient
	// failure triggers exactly one retry less the attempts that exhausted.
	if out.Obs.Counters[resilient.KeyRetries] == 0 {
		t.Error("refusals fired but nothing retried")
	}
}

// runRefuseOnlyCampaign is a smaller single-purpose pipeline run for the
// reconciliation test: no proxy, generous retry budgets so refusals are
// absorbed rather than exhausted.
func runRefuseOnlyCampaign(t *testing.T, inj *faultnet.Injector) Stats {
	t.Helper()
	u := cauniverse.Default()
	pop, err := population.Generate(population.Config{Seed: 3, Universe: u, SessionScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: 3, Universe: u, NumLeaves: 10})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := tlsnet.NewSites(world)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := tlsnet.ServeSites(sites)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	collector, err := collect.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	nsrv, err := notarynet.NewServer(oneShardNotary(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrv.Close()

	stats, err := Run(context.Background(), pop, origin, collector.Addr(),
		WithNotary(nsrv.Addr()),
		WithTargets([]tlsnet.HostPort{
			{Host: "gmail.com", Port: 443},
			{Host: "www.google.com", Port: 443},
		}),
		WithConcurrency(4),
		WithValidationTime(certgen.Epoch),
		WithProbeTimeout(2*time.Second),
		WithFaults(inj),
		WithProbeRetry(resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		}, 99)),
		WithSubmitRetry(resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		}, 99)),
		WithClock(func() time.Time { return certgen.Epoch }),
	)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}
