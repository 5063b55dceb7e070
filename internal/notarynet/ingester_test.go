package notarynet

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/resilient"
)

// gateStore rejects writes while closed — the shape of a durable store
// whose journal is fenced after a commit failure.
type gateStore struct {
	*notaryshard.Cluster
	reject bool
}

var errGateClosed = errors.New("journal fenced")

func (g *gateStore) Observe(o notary.Observation) error {
	if g.reject {
		return errGateClosed
	}
	return g.Cluster.Observe(o)
}

func (g *gateStore) ObserveCA(cert *x509.Certificate, port int) error {
	if g.reject {
		return errGateClosed
	}
	return g.Cluster.ObserveCA(cert, port)
}

func (g *gateStore) ObserveBatch(id string, batch []notary.Observation) error {
	if g.reject {
		return errGateClosed
	}
	return g.Cluster.ObserveBatch(id, batch)
}

// TestIngesterErrorSurfacesAndRetrySucceeds: a failing write path must
// turn into a protocol error (not a silent drop), must not poison the
// idempotency window — the retry with the SAME ID has to be processed,
// not absorbed as a duplicate — and must count in the rejected metric.
func TestIngesterErrorSurfacesAndRetrySucceeds(t *testing.T) {
	gate := &gateStore{Cluster: oneShard(t)}
	n := gate.Cluster
	srv, err := NewServer(gate, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, leaves := testPKI(t)
	chain := []*x509.Certificate{leaves[0], root.Cert}

	gate.reject = true
	req := Request{Op: "observe", ID: "retry-1", Chain: EncodeChain(chain), Port: 443}
	resp := srv.dispatch(req)
	if resp.OK || !strings.Contains(resp.Error, "journal fenced") {
		t.Fatalf("rejected observe = %+v, want the ingester error", resp)
	}
	if n.Sessions() != 0 {
		t.Fatal("rejected observation must not reach the database")
	}
	if got := srv.Snapshot().Counters[KeyIngestRejected]; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// The fence lifts; the sensor retries with the same idempotency ID.
	gate.reject = false
	resp = srv.dispatch(req)
	if !resp.OK {
		t.Fatalf("retry after fence = %+v, want OK", resp)
	}
	if n.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1 (retry processed, not deduplicated)", n.Sessions())
	}
	// A second, genuine duplicate IS absorbed.
	resp = srv.dispatch(req)
	if !resp.OK {
		t.Fatalf("duplicate = %+v, want OK", resp)
	}
	if n.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1 (duplicate absorbed)", n.Sessions())
	}

	// Same contract for CA sightings.
	gate.reject = true
	caReq := Request{Op: "observe_ca", ID: "retry-ca", Cert: EncodeCert(root.Cert), Port: 8883}
	if resp := srv.dispatch(caReq); resp.OK {
		t.Fatal("rejected observe_ca should error")
	}
	gate.reject = false
	if resp := srv.dispatch(caReq); !resp.OK {
		t.Fatalf("observe_ca retry = %+v, want OK", resp)
	}
	if n.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", n.Sessions())
	}
}

// TestDurableIngesterEndToEnd serves a durable one-shard cluster and
// checks an over-the-wire observation lands in the journal: after a
// reboot with no graceful shutdown, the observation survives.
func TestDurableIngesterEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cluster, err := notaryshard.Open(faultfs.Disk, dir, certgen.Epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, leaves := testPKI(t)

	cl, err := NewClient(context.Background(), srv.Addr(), WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Observe(context.Background(), []*x509.Certificate{leaves[1], root.Cert}, 993); err != nil {
		t.Fatal(err)
	}
	// No cluster.Close(): the acknowledgment alone must be durable.
	srv.Close()

	re, err := notaryshard.Open(faultfs.Disk, dir, certgen.Epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Sessions(); got != 1 {
		t.Fatalf("recovered sessions = %d, want 1", got)
	}
	if !re.HasRecord(leaves[1]) {
		t.Fatal("acknowledged observation missing after reboot")
	}
}

// stallStore holds its first write until release closes, then fails it —
// a journal fsync that stalls past the client's timeout and then errors.
// Later writes succeed.
type stallStore struct {
	*notaryshard.Cluster
	entered chan struct{}
	release chan struct{}
	writes  atomic.Int32
}

func newStallStore(t *testing.T) *stallStore {
	return &stallStore{Cluster: oneShard(t), entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *stallStore) stall() error {
	if s.writes.Add(1) > 1 {
		return nil
	}
	close(s.entered)
	<-s.release
	return errors.New("fsync failed")
}

func (s *stallStore) Observe(o notary.Observation) error {
	if err := s.stall(); err != nil {
		return err
	}
	return s.Cluster.Observe(o)
}

func (s *stallStore) ObserveCA(cert *x509.Certificate, port int) error {
	if err := s.stall(); err != nil {
		return err
	}
	return s.Cluster.ObserveCA(cert, port)
}

func (s *stallStore) ObserveBatch(id string, batch []notary.Observation) error {
	if err := s.stall(); err != nil {
		return err
	}
	return s.Cluster.ObserveBatch(id, batch)
}

// TestRetryWaitsForPendingOriginal: a retry that arrives on another
// connection while its original is still being applied must not be
// acknowledged before anything is durable. It waits for the original's
// outcome; when the original fails, the retry applies itself.
func TestRetryWaitsForPendingOriginal(t *testing.T) {
	root, leaves := testPKI(t)
	chain := EncodeChain([]*x509.Certificate{leaves[0], root.Cert})
	for _, req := range []Request{
		{Op: "observe", ID: "pending", Chain: chain, Port: 443},
		{Op: "observe_ca", ID: "pending", Cert: EncodeCert(root.Cert), Port: 443},
		{Op: "observe_batch", ID: "pending", Batch: []BatchItem{{Chain: chain, Port: 443}}},
	} {
		t.Run(req.Op, func(t *testing.T) {
			ing := newStallStore(t)
			n := ing.Cluster
			srv, err := NewServer(ing, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })

			original := make(chan Response, 1)
			go func() { original <- srv.dispatch(req) }()
			<-ing.entered
			retry := make(chan Response, 1)
			go func() { retry <- srv.dispatch(req) }()
			// Nothing signals that the retry has parked; give it time to
			// reach the idempotency window and check it has not answered.
			select {
			case resp := <-retry:
				close(ing.release)
				t.Fatalf("retry answered %+v while the original was still being applied", resp)
			case <-time.After(50 * time.Millisecond):
			}
			close(ing.release)
			if resp := <-original; resp.OK {
				t.Fatalf("original = %+v, want the ingest error", resp)
			}
			if resp := <-retry; !resp.OK {
				t.Fatalf("retry = %+v, want it applied once the original failed", resp)
			}
			if got := n.Sessions(); got != 1 {
				t.Fatalf("sessions = %d, want 1", got)
			}
			if resp := srv.dispatch(req); !resp.OK || n.Sessions() != 1 {
				t.Fatalf("later duplicate = %+v with %d sessions, want absorbed", resp, n.Sessions())
			}
		})
	}
}

// TestFailedIDAgesOutByLatestRecording: an ID that failed and was then
// applied stays deduplicated for a full window after that apply. Its
// failed attempt must not count towards its age.
func TestFailedIDAgesOutByLatestRecording(t *testing.T) {
	const window = 4096 // the server's idempotency window
	gate := &gateStore{Cluster: oneShard(t)}
	n := gate.Cluster
	srv, err := NewServer(gate, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, _ := testPKI(t)
	ca := EncodeCert(root.Cert)
	req := Request{Op: "observe_ca", ID: "x", Cert: ca, Port: 443}

	gate.reject = true
	if resp := srv.dispatch(req); resp.OK {
		t.Fatal("fenced write should fail")
	}
	gate.reject = false
	if resp := srv.dispatch(req); !resp.OK {
		t.Fatalf("retry = %+v", resp)
	}
	for i := 0; i < window-1; i++ {
		if resp := srv.dispatch(Request{Op: "observe_ca", ID: fmt.Sprintf("n-%d", i), Cert: ca, Port: 443}); !resp.OK {
			t.Fatalf("newer ID %d: %+v", i, resp)
		}
	}
	before := n.Sessions()
	if resp := srv.dispatch(req); !resp.OK {
		t.Fatalf("resend = %+v", resp)
	}
	if got := n.Sessions(); got != before {
		t.Fatalf("resend of x applied again (%d → %d sessions): x aged out one slot early", before, got)
	}
}

// TestClientRetryDoesNotOutrunFailedWrite drives the pending-duplicate
// case through a real client: the first write stalls past the client's
// timeout and then fails, while the client's retries arrive on fresh
// connections. Observe may succeed only if the observation is recorded.
func TestClientRetryDoesNotOutrunFailedWrite(t *testing.T) {
	ing := newStallStore(t)
	n := ing.Cluster
	srv, err := NewServer(ing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, leaves := testPKI(t)
	go func() {
		<-ing.entered
		time.Sleep(300 * time.Millisecond)
		close(ing.release)
	}()

	c, err := NewClient(context.Background(), srv.Addr(),
		WithTimeout(100*time.Millisecond),
		WithoutBreaker(),
		WithRetryPolicy(resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 10,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		}, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Observe(context.Background(), []*x509.Certificate{leaves[0], root.Cert}, 443); err != nil {
		t.Fatal(err)
	}
	if got := n.Sessions(); got != 1 {
		t.Fatalf("Observe acknowledged, but the notary holds %d sessions, want 1", got)
	}
}
