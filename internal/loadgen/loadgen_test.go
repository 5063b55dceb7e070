package loadgen

import (
	"context"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/faultnet"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/obs"
	"tangledmass/internal/resilient"
)

func bootTopology(t *testing.T, shards int) (*notaryshard.Cluster, string) {
	t.Helper()
	cluster, err := notaryshard.New(certgen.Epoch, shards)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := notarynet.NewServer(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return cluster, srv.Addr()
}

// TestRunAgainstShardedTopology drives a clean (fault-free) run and pins
// the accounting: everything sent is acked, the service holds exactly the
// acked observations (no double-count through batching), and the latency
// histogram saw every request.
func TestRunAgainstShardedTopology(t *testing.T) {
	cluster, addr := bootTopology(t, 4)
	ob := obs.New()
	rep, err := Run(context.Background(), Config{
		Addr:     addr,
		Sessions: 500,
		Clients:  3,
		Batch:    32,
		Observer: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 500 || rep.Acked != 500 || rep.FailedRequests != 0 {
		t.Fatalf("clean run: sent %d acked %d failed %d, want 500/500/0",
			rep.Sent, rep.Acked, rep.FailedRequests)
	}
	if got := cluster.Sessions(); got != 500 {
		t.Fatalf("service sessions = %d, want exactly 500", got)
	}
	if rep.Latency.Count != uint64(rep.Requests) {
		t.Fatalf("latency histogram saw %d samples, want %d requests", rep.Latency.Count, rep.Requests)
	}
	if rep.P99() <= 0 {
		t.Fatal("p99 = 0 on a run with real round trips")
	}
	if v := rep.Check(SLO{MaxP99Ms: 60_000, MaxErrorRate: 0}); len(v) != 0 {
		t.Fatalf("clean run violated a generous SLO: %v", v)
	}
	if v := rep.Check(SLO{MaxP99Ms: 0.000001, MaxErrorRate: 0}); len(v) == 0 {
		t.Fatal("impossible p99 SLO not violated")
	}
}

// TestRunUnderFaultsNeverDoubleCounts injects dial-path faults and checks
// the exactly-once pipeline end to end: retried batches (same idempotency
// ID) must not double-apply, so the service total is bounded by what was
// sent and covers at least what was acknowledged.
func TestRunUnderFaultsNeverDoubleCounts(t *testing.T) {
	cluster, addr := bootTopology(t, 3)
	rep, err := Run(context.Background(), Config{
		Addr:     addr,
		Sessions: 400,
		Clients:  4,
		Batch:    16,
		Faults: faultnet.New(faultnet.Plan{
			Seed:       9,
			RefuseProb: 0.15,
			ResetProb:  0.10,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := cluster.Sessions()
	if got < int64(rep.Acked) {
		t.Fatalf("service holds %d sessions but %d were acknowledged — acked work lost", got, rep.Acked)
	}
	if got > int64(rep.Sent) {
		t.Fatalf("service holds %d sessions but only %d were sent — a retry double-applied", got, rep.Sent)
	}
}

// TestPacerSpacesRequests checks the throttle math on a fake clock: N
// waits at rate R advance exactly N-1 intervals, with zero real sleeping.
func TestPacerSpacesRequests(t *testing.T) {
	now := time.Unix(0, 0)
	var slept time.Duration
	clock := resilient.Clock{
		Now:   func() time.Time { return now },
		Sleep: func(d time.Duration) { slept += d; now = now.Add(d) },
	}
	p := resilient.NewPacer(10).WithClock(clock) // 100ms interval
	for i := 0; i < 5; i++ {
		if err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if want := 400 * time.Millisecond; slept != want {
		t.Fatalf("5 waits at 10/s slept %v, want %v", slept, want)
	}
	// Unlimited pacer never sleeps.
	slept = 0
	u := resilient.NewPacer(0).WithClock(clock)
	for i := 0; i < 3; i++ {
		if err := u.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if slept != 0 {
		t.Fatalf("unlimited pacer slept %v", slept)
	}
}

// TestQuantileEstimator pins the p99 math the SLO gate rides on.
func TestQuantileEstimator(t *testing.T) {
	h := obs.New().Histogram(KeyObserveLatency, []float64{1, 2, 4, 8})
	for i := 0; i < 99; i++ {
		h.Observe(0.5) // first bucket
	}
	h.Observe(7) // (4,8] bucket
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %v, want within the first bucket", p50)
	}
	if p99 := s.Quantile(0.99); p99 > 1 {
		t.Fatalf("p99 = %v, want within the first bucket (99 of 100 samples there)", p99)
	}
	if p100 := s.Quantile(1); p100 <= 4 || p100 > 8 {
		t.Fatalf("p100 = %v, want in (4,8]", p100)
	}
	var empty obs.HistogramSnapshot
	if q := empty.Quantile(0.99); q != 0 {
		t.Fatalf("empty snapshot quantile = %v, want 0", q)
	}
}
