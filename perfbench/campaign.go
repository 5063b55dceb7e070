package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tangledmass/internal/campaign"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/collect"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/mitm"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/obs"
	"tangledmass/internal/population"
	"tangledmass/internal/resilient"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
	"tangledmass/internal/trusteval"
)

const (
	// campaignScale gives 1,597 sessions, a tenth of the paper's fleet.
	campaignScale = 0.1
	// campaignWorkers is the closed loop's concurrency.
	campaignWorkers = 2
	// notaryShards is the width of every durable notary cluster.
	notaryShards = 4
)

// campaignTargets are the three domains each session probes.
var campaignTargets = []tlsnet.HostPort{
	{Host: "gmail.com", Port: 443},
	{Host: "www.google.com", Port: 443},
	{Host: "www.twitter.com", Port: 443},
}

// campaignBench runs the full measurement pipeline: netalyzr sessions over
// loopback TLS (the intercepted handset through the mitm proxy), reports to
// the collector, observations one per request into a durable 4-shard
// notary that acknowledges after fsync.
type campaignBench struct {
	pop       *population.Population
	origin    *tlsnet.Server
	proxy     *mitm.Proxy
	collector *collect.Server
	cluster   *notaryshard.Cluster
	router    *obs.Observer
	notarySrv *notarynet.Server

	// What the run submitted, for the output checks.
	runs      []int // times each session ran
	acked     int64 // observations the notary acknowledged
	untrusted int64
	faults    map[string]int64
}

func setupCampaign(_ context.Context, seed int64, dir string) (bench, error) {
	u, err := cauniverse.New(seed)
	if err != nil {
		return nil, err
	}
	pop, err := population.Generate(population.Config{Seed: seed, Universe: u, SessionScale: campaignScale})
	if err != nil {
		return nil, err
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, Universe: u, NumLeaves: 10})
	if err != nil {
		return nil, err
	}
	sites, err := tlsnet.NewSites(world)
	if err != nil {
		return nil, err
	}
	b := &campaignBench{pop: pop, runs: make([]int, len(pop.Sessions)), faults: map[string]int64{}, router: obs.New()}
	if b.origin, err = tlsnet.ServeSites(sites); err != nil {
		return nil, err
	}
	b.proxy, err = mitm.NewProxy(u.InterceptionRoot().Issued, u.Generator(),
		tlsnet.DirectDialer{Server: b.origin}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
	if err == nil {
		b.collector, err = collect.NewServer("127.0.0.1:0")
	}
	if err == nil {
		b.cluster, err = notaryshard.Open(faultfs.Disk, filepath.Join(dir, "notary"), certgen.Epoch,
			notaryShards, notaryshard.WithObserver(b.router))
	}
	if err == nil {
		b.notarySrv, err = notarynet.NewServer(b.cluster, "127.0.0.1:0")
	}
	if err != nil {
		return nil, errors.Join(err, b.close())
	}
	return b, nil
}

// close stops the servers; every client has closed by the time run
// returns, so no server waits out an idle connection's read deadline.
func (b *campaignBench) close() error {
	var err error
	if b.notarySrv != nil {
		err = errors.Join(err, b.notarySrv.Close())
	}
	if b.cluster != nil {
		err = errors.Join(err, b.cluster.Close())
	}
	if b.collector != nil {
		err = errors.Join(err, b.collector.Close())
	}
	if b.origin != nil {
		err = errors.Join(err, b.origin.Close())
	}
	return err
}

func (b *campaignBench) run(ctx context.Context, window time.Duration, tr *tracer) (result, error) {
	if tr != nil {
		return b.replay(ctx, window, tr)
	}
	o := obs.New()
	opts := []campaign.Option{
		campaign.WithObserver(o),
		campaign.WithProxy(b.proxy),
		campaign.WithNotary(b.notarySrv.Addr()),
		campaign.WithTargets(campaignTargets),
		campaign.WithConcurrency(campaignWorkers),
		campaign.WithValidationTime(certgen.Epoch),
	}
	// The sampler reads the campaign's session spans every sampleInterval
	// while the passes run. Throughput and session latency are medians
	// over the intervals, so a burst of host contention moves a few
	// intervals, not the result.
	stop := make(chan struct{})
	samplesDone := make(chan []interval)
	go func() { samplesDone <- sampleSessions(stop, o) }()
	var res result
	start := time.Now()
	for time.Since(start) < window {
		passStart := time.Now()
		st, err := campaign.Run(ctx, b.pop, b.origin, b.collector.Addr(), opts...)
		if err == nil && st.Sessions != len(b.pop.Sessions) {
			err = fmt.Errorf("campaign ran %d sessions, population has %d", st.Sessions, len(b.pop.Sessions))
		}
		if err != nil {
			close(stop)
			<-samplesDone
			return res, err
		}
		res.unitMs = append(res.unitMs, ms(time.Since(passStart)))
		var probeFaults int
		for kind, n := range st.ProbeFaults {
			b.faults[kind] += int64(n)
			probeFaults += n
		}
		for i := range b.runs {
			b.runs[i]++
		}
		captured := len(campaignTargets)*(st.Sessions-st.Failed) - probeFaults
		b.acked += int64(captured - st.ObserveFailed)
		b.untrusted += int64(st.UntrustedProbes)
		res.attempted += st.Sessions
		res.failed += st.Failed + st.SubmitFailed + st.ObserveFailed
	}
	elapsed := time.Since(start)
	close(stop)
	var rates, latencies []float64
	for _, iv := range <-samplesDone {
		if iv.sessions > 0 {
			rates = append(rates, iv.rate())
			latencies = append(latencies, iv.meanLatencyMs())
		}
	}
	rate := newDist(rates)
	passes := res.unitMs
	res.unitMs = latencies
	res.throughput = rate.median()
	res.cost = ms(elapsed) / float64(res.attempted)
	res.lines = []string{
		rate.line("campaign.sessions_per_s", 0.5, "1/s") + fmt.Sprintf(" (%v intervals; %d sessions in %d passes, %.4f/s overall)",
			sampleInterval, res.attempted, len(passes), float64(res.attempted)/elapsed.Seconds()),
		newDist(latencies).line("campaign.session_ms", 0.5, "ms") + " (median of interval means)",
		fmt.Sprintf("%-34s %12.4f %-5s n=%d", "campaign.error_rate", float64(res.failed)/float64(res.attempted), "ratio", res.attempted),
		fmt.Sprintf("campaign pass times (ms): %.1f", passes),
	}
	return res, b.check()
}

// check compares the back ends' state with what the run submitted: the
// collector's aggregate with the replayed sessions' reports, and the
// notary's session count with the observations it acknowledged.
func (b *campaignBench) check() error {
	want := collect.Summary{ByManufacturer: map[string]int64{}, ByVersion: map[string]int64{}, StoreSizeMin: -1}
	stores := map[*population.Handset]*rootstore.Store{}
	for i, n := range b.runs {
		if n == 0 {
			continue
		}
		h := b.pop.Sessions[i].Handset
		st, ok := stores[h]
		if !ok {
			st = h.Device.EffectiveStore()
			stores[h] = st
		}
		k := int64(n)
		want.Sessions += k
		if h.Device.Rooted() {
			want.RootedSessions += k
		}
		want.ByManufacturer[h.Device.Manufacturer] += k
		want.ByVersion[h.Device.Version] += k
		want.StoreSizeSum += k * int64(st.Len())
		if want.StoreSizeMin < 0 || st.Len() < want.StoreSizeMin {
			want.StoreSizeMin = st.Len()
		}
		want.StoreSizeMax = max(want.StoreSizeMax, st.Len())
	}
	want.UntrustedProbes = b.untrusted
	got := b.collector.Summary()
	var errs []error
	if got.Sessions != want.Sessions || got.RootedSessions != want.RootedSessions ||
		got.UntrustedProbes != want.UntrustedProbes || got.StoreSizeSum != want.StoreSizeSum ||
		got.StoreSizeMin != want.StoreSizeMin || got.StoreSizeMax != want.StoreSizeMax ||
		!maps.Equal(got.ByManufacturer, want.ByManufacturer) || !maps.Equal(got.ByVersion, want.ByVersion) ||
		!maps.Equal(got.ProbeFaults, b.faults) {
		errs = append(errs, fmt.Errorf("collector summary does not match the submitted reports: got %d sessions (%d rooted, %d untrusted probes), want %d (%d, %d)",
			got.Sessions, got.RootedSessions, got.UntrustedProbes, want.Sessions, want.RootedSessions, want.UntrustedProbes))
	}
	if s := b.cluster.Sessions(); s != b.acked {
		errs = append(errs, fmt.Errorf("notary holds %d sessions, %d captured probes were acknowledged", s, b.acked))
	}
	return errors.Join(errs...)
}

// replayWorker is one closed-loop worker of the traced replay. It talks to
// its own notarynet server over the shared cluster, so the server-side
// span of an observation has exactly one possible client parent.
type replayWorker struct {
	srv      *notarynet.Server
	inflight atomic.Pointer[spanRef]
	outcomes []sessionOutcome
}

// sessionOutcome is one replayed session's contribution to the checks.
type sessionOutcome struct {
	index                   int
	failed, submitFailed    bool
	captured, observeFailed int
	untrusted               int
	faults                  map[string]int
}

// replay is the traced run: the same sessions in the same order, through
// the public APIs campaign.Run calls — netalyzr.Client.Run, then
// collect.Client.Submit, then notarynet.Client.Observe per captured chain —
// with a span around each call.
func (b *campaignBench) replay(ctx context.Context, window time.Duration, tr *tracer) (result, error) {
	o := obs.New()
	merges := mergeCounter(b.router)
	workers := make([]*replayWorker, campaignWorkers)
	for i := range workers {
		w := &replayWorker{}
		tc := &timedCluster{c: b.cluster, merges: merges, writer: &w.inflight, reader: &w.inflight}
		tc.tr.Store(tr)
		srv, err := notarynet.NewServer(tc, "127.0.0.1:0")
		if err != nil {
			for _, w := range workers[:i] {
				_ = w.srv.Close()
			}
			return result{}, err
		}
		w.srv = srv
		workers[i] = w
	}
	fsyncs := b.cluster.Snapshot().Counters[notary.KeyWALFsyncs]

	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, w *replayWorker) {
			defer wg.Done()
			root := tr.begin("bench.worker", spanRef{}, fmt.Sprintf("worker-%d", wi))
			defer root.end()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)-1) % len(b.pop.Sessions)
				w.outcomes = append(w.outcomes, b.replaySession(ctx, w, root.ref(), i, o, tr))
			}
		}(wi, w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var err error
	for _, w := range workers {
		err = errors.Join(err, w.srv.Close())
	}

	var res result
	for _, w := range workers {
		for _, out := range w.outcomes {
			b.runs[out.index]++
			res.attempted++
			if out.failed {
				res.failed++
				continue
			}
			if out.submitFailed {
				res.failed++
			}
			res.failed += out.observeFailed
			b.acked += int64(out.captured - out.observeFailed)
			b.untrusted += int64(out.untrusted)
			for kind, n := range out.faults {
				b.faults[kind] += int64(n)
			}
		}
	}
	res.throughput = float64(res.attempted) / elapsed.Seconds()
	res.cost = ms(elapsed) / float64(res.attempted)

	p := analyze(tr.snapshot())
	res.unitMs = p.Durations["bench.session"]
	sessions := float64(res.attempted)
	snap := o.Snapshot()
	attempts := float64(snap.Counters[resilient.KeyAttempts])
	failures := float64(snap.Counters[resilient.KeyFailureTransient] + snap.Counters[resilient.KeyFailurePermanent])
	var busy float64
	for _, d := range res.unitMs {
		busy += d
	}
	res.layers = map[string]metric{
		"netalyzr.run_p50_ms":             {p50(p.Durations["netalyzr.run"]), "ms"},
		"netalyzr.runs":                   {float64(len(p.Durations["netalyzr.run"])), "count"},
		"tlsnet.dial_p50_ms":              {p50(p.Durations["tlsnet.dial"]), "ms"},
		"mitm.dial_p50_ms":                {p50(p.Durations["mitm.dial"]), "ms"},
		"collect.submit_p50_ms":           {p50(p.Durations["collect.submit"]), "ms"},
		"notarynet.observe_p50_ms":        {p50(p.Durations["notarynet.observe"]), "ms"},
		"notaryshard.ingest_p50_ms":       {p50(p.Durations["notaryshard.ingest"]), "ms"},
		"notary.wal.fsyncs_per_session":   {float64(b.cluster.Snapshot().Counters[notary.KeyWALFsyncs]-fsyncs) / sessions, "count"},
		"trusteval.evals_per_session":     {float64(snap.Counters[trusteval.KeyEvals]) / sessions, "count"},
		"trusteval.overrides_per_session": {float64(snap.Counters[trusteval.KeyOverrides]) / sessions, "count"},
		"resilient.attempts_per_success":  {attempts / (attempts - failures), "ratio"},
		"parallel.busy_frac":              {busy / (ms(elapsed) * campaignWorkers), "ratio"},
	}
	res.lines = []string{
		fmt.Sprintf("%-34s %12.4f %-5s n=%d sessions replayed", "campaign.replay_sessions_per_s", res.throughput, "1/s", res.attempted),
	}
	return res, errors.Join(err, b.check())
}

// replaySession mirrors one campaign session: probe, submit, observe.
func (b *campaignBench) replaySession(ctx context.Context, w *replayWorker, parent spanRef, i int,
	o *obs.Observer, tr *tracer) sessionOutcome {
	s := b.pop.Sessions[i]
	scope := fmt.Sprintf("session-%d", s.ID)
	root := tr.begin("bench.session", parent, scope)
	defer root.end()
	out := sessionOutcome{index: i}

	run := tr.begin("netalyzr.run", root.ref(), "")
	dialer := tracedDialer{inner: tlsnet.DirectDialer{Server: b.origin}, name: "tlsnet.dial", tr: tr, parent: run.ref()}
	if s.Intercepted {
		dialer.inner, dialer.name = b.proxy, "mitm.dial"
	}
	client, err := netalyzr.New(s.Handset.Device, dialer,
		netalyzr.WithValidationTime(certgen.Epoch),
		netalyzr.WithObserver(o),
		netalyzr.WithSession(scope),
		netalyzr.WithPolicy(s.Policy),
		netalyzr.WithTargets(campaignTargets))
	var rep *netalyzr.Report
	if err == nil {
		rep, err = client.Run(ctx)
	}
	run.end()
	if err != nil {
		out.failed = true
		return out
	}
	out.untrusted = len(rep.UntrustedProbes())
	out.faults = rep.FaultTally()

	sub := tr.begin("collect.submit", root.ref(), "")
	out.submitFailed = submitReport(ctx, b.collector.Addr(), rep, o) != nil
	sub.end()

	var captured []netalyzr.ProbeResult
	for _, p := range rep.Probes {
		if p.Err == nil && len(p.Chain) > 0 {
			captured = append(captured, p)
		}
	}
	out.captured = len(captured)
	if len(captured) == 0 {
		return out
	}
	dial := tr.begin("notarynet.dial", root.ref(), "")
	nc, err := notarynet.NewClient(ctx, w.srv.Addr(), notarynet.WithoutBreaker(), notarynet.WithObserver(o))
	dial.end()
	if err != nil {
		out.observeFailed = len(captured)
		return out
	}
	defer nc.Close()
	for _, p := range captured {
		sp := tr.begin("notarynet.observe", root.ref(), "")
		ref := sp.ref()
		w.inflight.Store(&ref)
		if err := nc.Observe(ctx, p.Chain, p.Target.Port); err != nil {
			out.observeFailed++
		}
		w.inflight.Store(nil)
		sp.end()
	}
	return out
}

// submitReport delivers one report over a fresh collector connection, as
// every campaign session does.
func submitReport(ctx context.Context, addr string, rep *netalyzr.Report, o *obs.Observer) error {
	cl, err := collect.NewClient(ctx, addr, collect.WithObserver(o))
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Submit(ctx, rep)
}

// sampleInterval is the sampling period of the campaign's session spans.
const sampleInterval = 500 * time.Millisecond

// interval is what one sampling period saw of the campaign's sessions.
type interval struct {
	sessions int64
	sumMs    float64
	length   time.Duration
}

func (iv interval) rate() float64          { return float64(iv.sessions) / iv.length.Seconds() }
func (iv interval) meanLatencyMs() float64 { return iv.sumMs / float64(iv.sessions) }

// sampleSessions reads the campaign.session span aggregate every
// sampleInterval until stop closes. The aggregate's count and duration
// sum are exact (only its quantiles are bucketed), so each interval's
// mean session latency is measured, not estimated.
func sampleSessions(stop <-chan struct{}, o *obs.Observer) []interval {
	tick := time.NewTicker(sampleInterval)
	defer tick.Stop()
	read := func() (int64, float64) {
		sp := o.Snapshot().Spans[campaign.KeySessionSpan]
		return sp.Count, sp.Durations.Sum
	}
	var out []interval
	lastN, lastSum := read()
	lastAt := time.Now()
	for {
		select {
		case <-stop:
			return out
		case now := <-tick.C:
			n, sum := read()
			out = append(out, interval{sessions: n - lastN, sumMs: sum - lastSum, length: now.Sub(lastAt)})
			lastN, lastSum, lastAt = n, sum, now
		}
	}
}

// p50 is the median of raw samples, 0 when the layer saw no calls.
func p50(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return newDist(samples).median()
}
