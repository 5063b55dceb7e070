package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/obs"
	"tangledmass/internal/stats"
	"tangledmass/internal/tlsnet"
)

const (
	// serviceLeaves is the world the writer draws observations from;
	// serviceAbsent more leaves exist that are never written, for
	// has_record queries that must answer false.
	serviceLeaves = 5000
	serviceAbsent = 1000
	// The writer sends serviceBatch Zipf-drawn leaves per observe_batch
	// at serviceObsRate observations per second; the reader sends
	// serviceReadRate requests per second, serviceStats of them stats
	// reads and the rest has_record, half of those for leaves never
	// written. The rates keep the service well below two cores, so it
	// keeps up even when a shared host halves its CPU or its fsyncs stall,
	// and the run measures the service rather than a backlog.
	serviceBatch    = 16
	serviceObsRate  = 2000.0
	serviceReadRate = 125.0
	serviceStats    = 0.05
	// lagSlack is how much the generator's median lag may grow between
	// the first and last quarter of the window before the run is invalid.
	lagSlack = 50 * time.Millisecond
)

// serviceBench is an open loop against the durable 4-shard notary behind
// notarynet.Server: one writer connection and one reader connection, each
// request timed from when it was due.
type serviceBench struct {
	seed    int64
	dir     string
	leaves  []tlsnet.Leaf
	zipf    *stats.Zipf
	cluster *notaryshard.Cluster
	router  *obs.Observer
	timed   *timedCluster
	srv     *notarynet.Server

	writerInflight, readerInflight atomic.Pointer[spanRef]

	// acked counts observations the notary acknowledged.
	acked int64
}

func setupService(_ context.Context, seed int64, dir string) (bench, error) {
	u, err := cauniverse.New(seed)
	if err != nil {
		return nil, err
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, Universe: u, NumLeaves: serviceLeaves + serviceAbsent})
	if err != nil {
		return nil, err
	}
	zipf, err := stats.NewZipf(serviceLeaves, 1.0, 2.0)
	if err != nil {
		return nil, err
	}
	b := &serviceBench{seed: seed, dir: filepath.Join(dir, "notary"), leaves: world.Leaves(), zipf: zipf, router: obs.New()}
	b.cluster, err = notaryshard.Open(faultfs.Disk, b.dir, certgen.Epoch, notaryShards, notaryshard.WithObserver(b.router))
	if err != nil {
		return nil, err
	}
	// The server always reaches the cluster through the timing wrapper,
	// which records nothing until a traced run hands it a tracer: both
	// runs take the same server path.
	b.timed = &timedCluster{
		c: b.cluster, merges: mergeCounter(b.router),
		writer: &b.writerInflight, reader: &b.readerInflight,
	}
	if b.srv, err = notarynet.NewServer(b.timed, "127.0.0.1:0"); err != nil {
		return nil, errors.Join(err, b.cluster.Close())
	}
	return b, nil
}

// close shuts the server down (the run closed its clients already), then
// closes the cluster and reopens it from disk: recovery must return
// exactly the acknowledged observations.
func (b *serviceBench) close() error {
	err := b.srv.Close()
	unique, sessions := b.cluster.NumUnique(), b.cluster.Sessions()
	if err := errors.Join(err, b.cluster.Close()); err != nil {
		return err
	}
	if sessions != b.acked {
		return fmt.Errorf("notary holds %d sessions, %d observations were acknowledged", sessions, b.acked)
	}
	re, err := notaryshard.Open(faultfs.Disk, b.dir, certgen.Epoch, notaryShards)
	if err != nil {
		return fmt.Errorf("reopening the cluster: %w", err)
	}
	gotUnique, gotSessions := re.NumUnique(), re.Sessions()
	if err := re.Close(); err != nil {
		return err
	}
	if gotUnique != unique || gotSessions != sessions {
		return fmt.Errorf("recovery returned %d unique certificates in %d sessions, want %d in %d",
			gotUnique, gotSessions, unique, sessions)
	}
	return nil
}

func (b *serviceBench) run(ctx context.Context, window time.Duration, tr *tracer) (result, error) {
	b.timed.tr.Store(tr)
	defer b.timed.tr.Store(nil)
	dial := func() (*notarynet.Client, error) {
		return notarynet.NewClient(ctx, b.srv.Addr(), notarynet.WithoutBreaker())
	}
	wc, err := dial()
	if err != nil {
		return result{}, err
	}
	rc, err := dial()
	if err != nil {
		return result{}, errors.Join(err, wc.Close())
	}
	walBytes := b.cluster.Snapshot().Counters[notary.KeyWALBytes]
	merges := mergeCounter(b.router).Value()
	uniqueBefore := b.cluster.NumUnique()

	// written holds the indices of leaves in acknowledged batches, for the
	// reader's has_record queries that must answer true.
	var mu sync.Mutex
	var written []int
	var certsSubmitted int64
	var wrong atomic.Int64

	start := time.Now().Add(20 * time.Millisecond)
	var writes, reads []request
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		root := tr.begin("bench.writer", spanRef{}, "writer")
		defer root.end()
		src := stats.NewSource(b.seed)
		writes = openLoop(ctx, wallClock{}, start, serviceObsRate/serviceBatch, window, func(i int) (string, error) {
			batch := make([]notarynet.ChainObservation, serviceBatch)
			idx := make([]int, serviceBatch)
			for j := range batch {
				idx[j] = b.zipf.Sample(src)
				leaf := b.leaves[idx[j]]
				batch[j] = notarynet.ChainObservation{Chain: leaf.Chain, Port: leaf.Port}
			}
			sp := tr.begin("notarynet.observe_batch", root.ref(), fmt.Sprintf("w-%d", i))
			ref := sp.ref()
			b.writerInflight.Store(&ref)
			err := wc.ObserveBatch(ctx, batch)
			b.writerInflight.Store(nil)
			sp.end()
			if err == nil {
				mu.Lock()
				written = append(written, idx...)
				for _, o := range batch {
					certsSubmitted += int64(len(o.Chain))
				}
				mu.Unlock()
			}
			return "observe", err
		})
	}()
	go func() {
		defer wg.Done()
		root := tr.begin("bench.reader", spanRef{}, "reader")
		defer root.end()
		src := stats.NewSource(b.seed + 1)
		var lastSessions int64
		reads = openLoop(ctx, wallClock{}, start, serviceReadRate, window, func(i int) (string, error) {
			session := fmt.Sprintf("r-%d", i)
			if src.Float64() < serviceStats {
				sp := tr.begin("notarynet.stats", root.ref(), session)
				ref := sp.ref()
				b.readerInflight.Store(&ref)
				st, err := rc.Stats(ctx)
				b.readerInflight.Store(nil)
				sp.end()
				if err == nil && st.Sessions < lastSessions {
					wrong.Add(1)
				}
				lastSessions = max(lastSessions, st.Sessions)
				return "stats", err
			}
			// Which acknowledged leaf a present query names depends on how
			// far the writer has got; the draws themselves follow the seed.
			leaf, want := b.leaves[serviceLeaves+src.Intn(serviceAbsent)], false
			present, pick := src.Bool(0.5), src.Float64()
			mu.Lock()
			if present && len(written) > 0 {
				leaf, want = b.leaves[written[int(pick*float64(len(written)))]], true
			}
			mu.Unlock()
			sp := tr.begin("notarynet.has_record", root.ref(), session)
			ref := sp.ref()
			b.readerInflight.Store(&ref)
			got, err := rc.HasRecord(ctx, leaf.Chain[0])
			b.readerInflight.Store(nil)
			sp.end()
			if err == nil && got != want {
				wrong.Add(1)
			}
			return "point", err
		})
	}()
	wg.Wait()
	elapsed := time.Since(start)
	// Clients close before the server does, outside the window.
	err = errors.Join(wc.Close(), rc.Close())

	var res result
	byKind := map[string][]float64{}
	var lags []float64
	for _, rs := range [][]request{writes, reads} {
		for _, r := range rs {
			res.attempted++
			lags = append(lags, ms(r.Lag))
			if r.Err != nil {
				res.failed++
				continue
			}
			byKind[r.Kind] = append(byKind[r.Kind], ms(r.Latency))
		}
	}
	// The unit of work is an observe_batch, the write a sensor waits on;
	// the reads are the load it contends with, reported per class below.
	res.unitMs = byKind["observe"]
	b.acked += int64(len(res.unitMs)) * serviceBatch
	res.throughput = float64(res.attempted-res.failed) / elapsed.Seconds()
	res.cost = newDist(res.unitMs).median()
	observe, point, st := newDist(byKind["observe"]), newDist(byKind["point"]), newDist(byKind["stats"])
	lag := newDist(lags)
	res.lines = []string{
		observe.line("notary-service.observe_p50_ms", 0.5, "ms"),
		observe.line("notary-service.observe_p99_ms", 0.99, "ms"),
		point.line("notary-service.point_p50_ms", 0.5, "ms"),
		point.line("notary-service.point_p99_ms", 0.99, "ms"),
		st.line("notary-service.stats_p50_ms", 0.5, "ms"),
		st.line("notary-service.stats_p99_ms", 0.99, "ms"),
		lag.line("notary-service.lag_p99_ms", 0.99, "ms"),
		fmt.Sprintf("%-34s %12.4f %-5s n=%d", "notary-service.error_rate", float64(res.failed)/float64(res.attempted), "ratio", res.attempted),
	}
	if n := wrong.Load(); n > 0 {
		err = errors.Join(err, fmt.Errorf("%d reads answered wrongly", n))
	}
	if lagGrowing(writes, lagSlack) || lagGrowing(reads, lagSlack) {
		err = errors.Join(err, errors.New("the generator's lag kept growing: the service fell behind the offered rate"))
	}
	if tr != nil {
		p := analyze(tr.snapshot())
		statsReqs := float64(st.n())
		wire := append(append([]float64{}, p.SelfTimes["notarynet.observe_batch"]...), p.SelfTimes["notarynet.has_record"]...)
		res.layers = map[string]metric{
			"notaryshard.observe_batch_p50_ms": {p50(p.Durations["notaryshard.observe_batch"]), "ms"},
			"notary.wal.bytes_per_obs":         {float64(b.cluster.Snapshot().Counters[notary.KeyWALBytes]-walBytes) / float64(len(byKind["observe"])*serviceBatch), "B"},
			"notarynet.wire_p50_ms":            {p50(wire), "ms"},
			"notaryshard.has_record_p50_ms":    {p50(p.Durations["notaryshard.has_record"]), "ms"},
			"notaryshard.merge_p50_ms":         {p50(p.Durations["notaryshard.merge"]), "ms"},
			"notaryshard.merges_per_stats":     {float64(mergeCounter(b.router).Value()-merges) / statsReqs, "ratio"},
			"notary.dedup_ratio":               {1 - float64(b.cluster.NumUnique()-uniqueBefore)/float64(certsSubmitted), "ratio"},
			"loadgen.lag_p99_ms":               {lag.quantile(0.99), "ms"},
		}
	}
	return res, err
}
