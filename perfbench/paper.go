package main

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/chain"
	"tangledmass/internal/corpus"
	"tangledmass/internal/dataset"
	"tangledmass/internal/device"
	"tangledmass/internal/mitm"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/report"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

const (
	// paperScale is the paper's full fleet: 15,970 sessions.
	paperScale = 1.0
	// paperLeaves sizes the notary's TLS internet; its ~18.7k unexpired
	// leaves exceed the 16,384-entry chain cache.
	paperLeaves = 20000
)

// paperDigest is the SHA-256 of the artifact JSON at defaultSeed.
const paperDigest = "46ca9b4543aee05c2052dec00ad3365adda59e02a3dc520a837c10432b0937ab"

// paperBench regenerates every paper artifact from generated inputs:
// notary ingest, a columnar dataset round trip of the fleet, every
// analysis on the loaded fleet, and report rendering plus artifact JSON.
type paperBench struct {
	seed      int64
	dir       string
	u         *cauniverse.Universe
	pop       *population.Population
	world     *tlsnet.World
	origin    *tlsnet.Server
	proxy     *mitm.Proxy
	reference *rootstore.Store
}

func setupPaper(_ context.Context, seed int64, dir string) (bench, error) {
	u, err := cauniverse.New(seed)
	if err != nil {
		return nil, err
	}
	pop, err := population.Generate(population.Config{Seed: seed, Universe: u, SessionScale: paperScale})
	if err != nil {
		return nil, err
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, Universe: u, NumLeaves: paperLeaves})
	if err != nil {
		return nil, err
	}
	sites, err := tlsnet.NewSites(world)
	if err != nil {
		return nil, err
	}
	origin, err := tlsnet.ServeSites(sites)
	if err != nil {
		return nil, err
	}
	proxy, err := mitm.NewProxy(u.InterceptionRoot().Issued, u.Generator(),
		tlsnet.DirectDialer{Server: origin}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
	if err != nil {
		return nil, errors.Join(err, origin.Close())
	}
	return &paperBench{
		seed: seed, dir: dir, u: u, pop: pop, world: world, origin: origin, proxy: proxy,
		reference: rootstore.Union("official stores", u.AOSP("4.4"), u.Mozilla(), u.IOS7()),
	}, nil
}

func (b *paperBench) close() error { return b.origin.Close() }

func (b *paperBench) run(ctx context.Context, window time.Duration, tr *tracer) (result, error) {
	var res result
	var digests []string
	var cache []chain.CacheStats
	start := time.Now()
	for k := 0; time.Since(start) < window; k++ {
		passStart := time.Now()
		res.attempted++
		digest, stats, err := b.pass(ctx, k, tr)
		if err != nil {
			res.failed++
			return res, err
		}
		res.unitMs = append(res.unitMs, ms(time.Since(passStart)))
		digests = append(digests, digest)
		cache = append(cache, stats)
	}
	// Throughput is the fleet's sessions over the median pass, so one
	// pass slowed by host contention does not move it.
	artifacts := newDist(res.unitMs)
	res.throughput = float64(len(b.pop.Sessions)) / (artifacts.median() / 1000)
	res.cost = artifacts.median()
	res.lines = []string{
		fmt.Sprintf("%-34s %12.4f %-5s n=%d passes", "paper.artifacts_s", artifacts.median()/1000, "s", artifacts.n()),
		fmt.Sprintf("paper artifact digest (seed %d): %s", b.seed, digests[0]),
	}

	var errs []error
	for k, d := range digests {
		if d != digests[0] {
			errs = append(errs, fmt.Errorf("pass %d artifact digest %s differs from pass 0's %s", k, d, digests[0]))
		}
	}
	if b.seed == defaultSeed && digests[0] != paperDigest {
		errs = append(errs, fmt.Errorf("artifact digest %s does not match the committed %s", digests[0], paperDigest))
	}
	if tr != nil {
		p := analyze(tr.snapshot())
		last := cache[len(cache)-1]
		res.layers = map[string]metric{
			"notary.ingest_ms":     {p50(p.Durations["notary.ingest"]), "ms"},
			"notary.ingest_allocs": {p50(tr.counted("notary.ingest_allocs")), "count"},
			"dataset.write_ms":     {p50(p.Durations["dataset.write"]), "ms"},
			"dataset.read_ms":      {p50(p.Durations["dataset.read"]), "ms"},
			"dataset.read_allocs":  {p50(tr.counted("dataset.read_allocs")), "count"},
			"analysis.validate_ms": {p50(p.Durations["analysis.table3"]) + p50(p.Durations["analysis.validate_categories"]), "ms"},
			"analysis.figure2_ms":  {p50(p.Durations["analysis.figure2"]), "ms"},
			"analysis.fleet_ms":    {p50(p.Durations["analysis.fleet"]), "ms"},
			"analysis.table6_ms":   {p50(p.Durations["bench.table6"]), "ms"},
			"report.render_ms":     {p50(p.Durations["report.render"]), "ms"},
			"chain.cache_hits":     {float64(last.Hits), "count"},
			"chain.cache_misses":   {float64(last.Misses), "count"},
			"chain.cache_hit_rate": {last.HitRate(), "ratio"},
		}
		var all chain.CacheStats
		for _, c := range cache {
			all.Hits += c.Hits
			all.Misses += c.Misses
		}
		res.lines = append(res.lines, fmt.Sprintf("chain cache over %d passes: %d hits in %d lookups (hit rate %.4f); per pass %d lookups",
			len(cache), all.Hits, all.Hits+all.Misses, all.HitRate(), last.Hits+last.Misses))
	}
	return res, errors.Join(errs...)
}

// pass regenerates every artifact once and returns the artifact JSON's
// digest and the pass's chain-cache tallies. Each pass interns into a
// fresh corpus, so every pass does the first-sight interning a fresh
// process does.
func (b *paperBench) pass(ctx context.Context, k int, tr *tracer) (string, chain.CacheStats, error) {
	root := tr.begin("bench.pass", spanRef{}, fmt.Sprintf("pass-%d", k))
	defer root.end()
	at := root.ref()
	c := corpus.New()

	n := notary.New(certgen.Epoch, notary.WithCorpus(c))
	feed := tr.begin("tlsnet.feed", at, "")
	err := tlsnet.FeedTo(b.world, timedSink{n: n, tr: tr, parent: feed.ref()})
	feed.end()
	if err != nil {
		return "", chain.CacheStats{}, err
	}

	dir := filepath.Join(b.dir, fmt.Sprintf("dataset-%d", k))
	opts := []dataset.Option{dataset.WithFormat(dataset.Columnar), dataset.WithUniverse(b.u), dataset.WithCorpus(c)}
	sp := tr.begin("dataset.write", at, "")
	err = dataset.NewWriter(dir, opts...).Write(ctx, b.pop)
	sp.end()
	if err != nil {
		return "", chain.CacheStats{}, err
	}
	var fleet *population.Population
	err = tracedAllocs(tr, "dataset.read", at, func() error {
		var err error
		fleet, err = dataset.NewReader(dir, opts...).Read(ctx)
		return err
	})
	if err != nil {
		return "", chain.CacheStats{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", chain.CacheStats{}, err
	}

	a := map[string]any{}
	call := func(name string, fn func()) {
		sp := tr.begin(name, at, "")
		fn()
		sp.end()
	}
	var table1 []analysis.StoreSize
	var devices, manufacturers []analysis.CountRow
	var headlines analysis.Headlines
	var points []analysis.ScatterPoint
	var cells []analysis.AttributionCell
	var table3, cats []analysis.CategoryValidation
	var table5 []analysis.RootedExclusive
	var attribution analysis.TrustAttribution
	call("analysis.universe", func() {
		table1 = analysis.Table1(b.u)
		a["mozilla_overlap"] = analysis.MozillaOverlap(b.u)
	})
	call("analysis.fleet", func() {
		devices, manufacturers = analysis.Table2(fleet, 5)
		headlines = analysis.ComputeHeadlines(fleet)
		points = analysis.Figure1(fleet)
		table5 = analysis.Table5(fleet)
		attribution = analysis.ComputeTrustAttribution(fleet)
	})
	call("analysis.figure2", func() { cells = analysis.Figure2(fleet, n, 10) })
	call("analysis.table3", func() { table3 = analysis.Table3(n, b.u) })
	call("analysis.validate_categories", func() { cats = analysis.ValidateCategories(n, analysis.Figure3Categories(b.u)) })
	intercepted, clean, err := b.table6(ctx, tr, at)
	if err != nil {
		return "", chain.CacheStats{}, err
	}
	a["table1"], a["table2"] = table1, map[string]any{"devices": devices, "manufacturers": manufacturers}
	a["headlines"], a["figure1"], a["figure2"] = headlines, points, cells
	a["figure2_class_shares"] = analysis.ClassShares(cells)
	a["table3"], a["table4"], a["figure3"], a["table5"] = table3, cats, cats, table5
	a["trust_attribution"] = attribution
	a["table6"] = map[string]any{"intercepted": table6Rows(intercepted), "whitelisted": table6Rows(clean)}

	var rendered strings.Builder
	call("report.render", func() {
		for _, s := range []string{
			report.Table1(table1), report.Table2(devices, manufacturers), report.Headlines(headlines),
			report.Figure1(points), report.Figure2(cells, 12), report.Table3(table3), report.Table4(cats),
			report.Figure3(cats, 12), report.Table5(table5), report.TrustAttributionTable(attribution),
			report.Table6(intercepted, clean),
		} {
			rendered.WriteString(s)
		}
	})
	sp = tr.begin("bench.artifact_json", at, "")
	body, err := json.Marshal(a)
	if err == nil {
		err = os.WriteFile(filepath.Join(b.dir, "artifacts.json"), body, 0o644)
	}
	sp.end()
	if err != nil {
		return "", chain.CacheStats{}, err
	}
	if err := checkArtifacts(b.pop, fleet, attribution, rendered.Len(), len(n.UnexpiredLeafRefs())); err != nil {
		return "", chain.CacheStats{}, err
	}
	sum := sha256.Sum256(body)
	st := n.CacheStats()
	return hex.EncodeToString(sum[:]), st, nil
}

// checkArtifacts holds for every seed: the fleet survived its dataset
// round trip, the trust attribution partitions its sessions, something was
// rendered, and the notary has unexpired leaves to validate.
func checkArtifacts(pop, fleet *population.Population, ta analysis.TrustAttribution, rendered, unexpired int) error {
	var errs []error
	if len(fleet.Sessions) != len(pop.Sessions) || len(fleet.Handsets) != len(pop.Handsets) {
		errs = append(errs, fmt.Errorf("dataset round trip: %d sessions on %d handsets, want %d on %d",
			len(fleet.Sessions), len(fleet.Handsets), len(pop.Sessions), len(pop.Handsets)))
	}
	var byCause int
	for _, c := range ta.ByCause {
		byCause += c.Sessions
	}
	if ta.TotalSessions != len(pop.Sessions) || byCause != ta.TotalSessions {
		errs = append(errs, fmt.Errorf("trust attribution does not partition the sessions: %d by cause, %d total, %d in the fleet",
			byCause, ta.TotalSessions, len(pop.Sessions)))
	}
	if rendered == 0 || unexpired == 0 {
		errs = append(errs, fmt.Errorf("empty pass: %d rendered bytes, %d unexpired leaves", rendered, unexpired))
	}
	return errors.Join(errs...)
}

// table6 reproduces §7 live: one netalyzr session through the
// interception proxy, split by the detector.
func (b *paperBench) table6(ctx context.Context, tr *tracer, parent spanRef) (intercepted, clean []mitm.Finding, err error) {
	sp := tr.begin("bench.table6", parent, "")
	defer sp.end()
	dev := device.New(device.Profile{
		Model: "Nexus 7", Manufacturer: "ASUS", Operator: "WiFi", Country: "US", Version: "4.4",
	}, b.u.AOSP("4.4"), nil)
	run := tr.begin("netalyzr.run", sp.ref(), "")
	client, err := netalyzr.New(dev, tracedDialer{inner: b.proxy, name: "mitm.dial", tr: tr, parent: run.ref()},
		netalyzr.WithValidationTime(certgen.Epoch))
	var rep *netalyzr.Report
	if err == nil {
		rep, err = client.Run(ctx)
	}
	run.end()
	if err != nil {
		return nil, nil, err
	}
	insp := tr.begin("mitm.inspect", sp.ref(), "")
	det := &mitm.Detector{Reference: b.reference, At: certgen.Epoch}
	intercepted, clean = det.InspectReport(rep)
	insp.end()
	if len(intercepted) != len(tlsnet.InterceptedDomains) || len(clean) != len(tlsnet.WhitelistedDomains) {
		return nil, nil, fmt.Errorf("table 6 split %d intercepted / %d whitelisted, want %d / %d",
			len(intercepted), len(clean), len(tlsnet.InterceptedDomains), len(tlsnet.WhitelistedDomains))
	}
	return intercepted, clean, nil
}

// table6Row is a detector finding without its certificates: ECDSA
// signatures are randomized, so certificate bytes differ between
// processes while every classification stays the same.
type table6Row struct {
	Host          string
	Port          int
	Verdict       string
	Reason        string
	SignerSubject string
	AppAccepted   bool
}

func table6Rows(fs []mitm.Finding) []table6Row {
	out := make([]table6Row, len(fs))
	for i, f := range fs {
		out[i] = table6Row{f.Host, f.Port, f.Verdict.String(), f.Reason, f.SignerSubject, f.AppAccepted}
	}
	return out
}

// timedSink feeds the notary through tlsnet.FeedTo with a span around
// each notary call.
type timedSink struct {
	n      *notary.Notary
	tr     *tracer
	parent spanRef
}

func (s timedSink) ObserveAll(batch []notary.Observation) error {
	return tracedAllocs(s.tr, "notary.ingest", s.parent, func() error {
		s.n.ObserveAll(batch)
		return nil
	})
}

func (s timedSink) ObserveCA(cert *x509.Certificate, port int) error {
	sp := s.tr.begin("notary.observe_ca", s.parent, "")
	defer sp.end()
	s.n.ObserveCA(cert, port)
	return nil
}

func (s timedSink) ImportStore(st *rootstore.Store) error {
	sp := s.tr.begin("notary.import_store", s.parent, "")
	defer sp.end()
	s.n.ImportStore(st)
	return nil
}

// tracedAllocs runs fn inside a span and, when tracing, counts the heap
// allocations made while it ran under "<name>_allocs".
func tracedAllocs(tr *tracer, name string, parent spanRef, fn func() error) error {
	if tr == nil {
		return fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin(name, parent, "")
	err := fn()
	sp.end()
	runtime.ReadMemStats(&after)
	tr.count(name+"_allocs", float64(after.Mallocs-before.Mallocs))
	return err
}
