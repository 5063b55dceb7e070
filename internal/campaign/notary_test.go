package campaign

import (
	"context"
	"errors"
	"sync"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/collect"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/population"
	"tangledmass/internal/tlsnet"
)

// recordingStore is a notary store, a one-shard cluster, that records how
// the campaign called its write path, and rejects every write when reject
// is set.
type recordingStore struct {
	*notaryshard.Cluster
	reject bool

	mu      sync.Mutex
	singles int   // observe requests
	batches []int // the size of each observe_batch request
}

var errRejected = errors.New("write path down")

func (r *recordingStore) Observe(o notary.Observation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.singles++
	if r.reject {
		return errRejected
	}
	return r.Cluster.Observe(o)
}

func (r *recordingStore) ObserveBatch(id string, batch []notary.Observation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, len(batch))
	if r.reject {
		return errRejected
	}
	return r.Cluster.ObserveBatch(id, batch)
}

var notaryTargets = []tlsnet.HostPort{
	{Host: "gmail.com", Port: 443},
	{Host: "www.google.com", Port: 443},
	{Host: "www.twitter.com", Port: 443},
}

// runAgainstStore runs a fault-free campaign whose notary writes go
// through ing, returning the campaign stats and the notary server's obs
// snapshot counters.
func runAgainstStore(t *testing.T, ing *recordingStore) (Stats, map[string]int64) {
	t.Helper()
	u := cauniverse.Default()
	pop, err := population.Generate(population.Config{Seed: 4, Universe: u, SessionScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: 4, Universe: u, NumLeaves: 10})
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
	nsrv, err := notarynet.NewServer(ing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrv.Close()

	stats, err := Run(context.Background(), pop, origin, collector.Addr(),
		WithNotary(nsrv.Addr()),
		WithTargets(notaryTargets),
		WithConcurrency(4),
		WithValidationTime(certgen.Epoch),
	)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions == 0 || stats.Failed != 0 || len(stats.ProbeFaults) != 0 {
		t.Fatalf("campaign stats = %+v, want every session and probe to succeed", stats)
	}
	return stats, nsrv.Snapshot().Counters
}

// TestSessionSendsOneObserveBatch: each session hands its captured chains
// to the notary in one observe_batch request, and the notary ingests every
// chain the probes captured.
func TestSessionSendsOneObserveBatch(t *testing.T) {
	ing := &recordingStore{Cluster: oneShardNotary(t)}
	stats, counters := runAgainstStore(t, ing)

	if ing.singles != 0 {
		t.Errorf("notary served %d single observe requests, want 0", ing.singles)
	}
	if len(ing.batches) != stats.Sessions {
		t.Errorf("notary served %d observe_batch requests for %d sessions with captures, want one each",
			len(ing.batches), stats.Sessions)
	}
	captured := stats.Sessions * len(notaryTargets)
	total := 0
	for _, n := range ing.batches {
		if n != len(notaryTargets) {
			t.Errorf("a batch carried %d chains, want %d (one per probe)", n, len(notaryTargets))
		}
		total += n
	}
	if total != captured {
		t.Errorf("batches carried %d chains, probes captured %d", total, captured)
	}
	if got := counters[notarynet.KeyIngestTotal]; got != int64(captured) {
		t.Errorf("%s = %d, want %d captured chains", notarynet.KeyIngestTotal, got, captured)
	}
	if got := ing.Sessions(); got != int64(captured) {
		t.Errorf("notary holds %d sessions, want %d", got, captured)
	}
	if stats.ObserveFailed != 0 {
		t.Errorf("ObserveFailed = %d on a healthy notary", stats.ObserveFailed)
	}
}

// TestObserveFailedCountsObservations: a lost batch loses every chain it
// carried, so ObserveFailed keeps counting observations, not requests.
func TestObserveFailedCountsObservations(t *testing.T) {
	ing := &recordingStore{Cluster: oneShardNotary(t), reject: true}
	stats, counters := runAgainstStore(t, ing)

	if want := len(notaryTargets) * stats.Sessions; stats.ObserveFailed != want {
		t.Errorf("ObserveFailed = %d, want %d (%d chains in each of %d sessions)",
			stats.ObserveFailed, want, len(notaryTargets), stats.Sessions)
	}
	if got := stats.Obs.Counters[KeyObserveFailed]; got != int64(stats.ObserveFailed) {
		t.Errorf("obs %s = %d, want %d", KeyObserveFailed, got, stats.ObserveFailed)
	}
	if got := counters[notarynet.KeyIngestRejected]; got != int64(stats.Sessions) {
		t.Errorf("%s = %d, want one rejected request per session (%d)", notarynet.KeyIngestRejected, got, stats.Sessions)
	}
	if ing.Sessions() != 0 {
		t.Errorf("rejected writes reached the notary: %d sessions", ing.Sessions())
	}
}
