package notarynet

import (
	"context"
	"crypto/x509"
	"errors"
	"strings"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/tlsnet"
)

// TestObserveBatchOverTheWire drives the batched ingest path end to end
// with a real client: one request, many observations, one acknowledgment.
func TestObserveBatchOverTheWire(t *testing.T) {
	srv, n := startServer(t)
	root, leaves := testPKI(t)

	cl, err := NewClient(context.Background(), srv.Addr(), WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	batch := make([]ChainObservation, len(leaves))
	for i, leaf := range leaves {
		batch[i] = ChainObservation{Chain: []*x509.Certificate{leaf, root.Cert}, Port: 443}
	}
	if err := cl.ObserveBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if got := n.Sessions(); got != int64(len(batch)) {
		t.Fatalf("sessions = %d, want %d", got, len(batch))
	}
	if got := srv.Snapshot().Counters[KeyIngestTotal]; got != int64(len(batch)) {
		t.Fatalf("ingest counter = %d, want %d (counts observations, not requests)", got, len(batch))
	}
	// Empty batches and empty chains are protocol errors, not panics.
	if resp := srv.dispatch(Request{Op: "observe_batch"}); resp.OK {
		t.Fatal("empty batch accepted")
	}
	if resp := srv.dispatch(Request{Op: "observe_batch", Batch: []BatchItem{{}}}); resp.OK {
		t.Fatal("empty chain accepted")
	}
}

// TestObserveBatchAtomicThroughDB checks the durable write path: the
// server hands a whole batch to the cluster, whose lone shard commits it
// with one notary.DB.Append — one group commit, one WAL fsync — so a
// batch is never half-acknowledged.
func TestObserveBatchAtomicThroughDB(t *testing.T) {
	cluster, err := notaryshard.Open(faultfs.Disk, t.TempDir(), certgen.Epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	srv, err := NewServer(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, leaves := testPKI(t)

	items := make([]BatchItem, len(leaves))
	for i, leaf := range leaves {
		items[i] = BatchItem{Chain: EncodeChain([]*x509.Certificate{leaf, root.Cert}), Port: 8883}
	}
	fsyncs := func() int64 { return cluster.Snapshot().Counters[notary.KeyWALFsyncs] }
	before := fsyncs()
	resp := srv.dispatch(Request{Op: "observe_batch", ID: "db-batch", Batch: items})
	if !resp.OK || resp.Applied != len(items) {
		t.Fatalf("batch through DB = %+v, want OK with %d applied", resp, len(items))
	}
	if got := cluster.Sessions(); got != int64(len(items)) {
		t.Fatalf("sessions = %d, want %d", got, len(items))
	}
	if got := fsyncs() - before; got != 1 {
		t.Fatalf("a %d-item batch took %d WAL fsyncs, want 1", len(items), got)
	}
}

// TestRouterBatchRetryExactlyOncePerShard extends the ingester retry
// contract to the sharded router: when one shard fails mid-batch, the
// server must surface the error AND forget the request's idempotency ID,
// and the sensor's retry under the same ID must land each observation
// exactly once per shard — shards that committed the first attempt skip
// it, the shard that failed applies it.
func TestRouterBatchRetryExactlyOncePerShard(t *testing.T) {
	w, err := tlsnet.NewWorld(tlsnet.Config{Seed: 11, NumLeaves: 300})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := notaryshard.New(certgen.Epoch, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// A batch wide enough to span all three shards.
	var items []BatchItem
	var size int
	for _, leaf := range w.Leaves() {
		items = append(items, BatchItem{Chain: EncodeChain(leaf.Chain), Port: leaf.Port})
		size++
		if size >= 60 {
			break
		}
	}

	boom := errors.New("shard 1 lost its disk")
	cluster.FailNext(1, boom)
	req := Request{Op: "observe_batch", ID: "sharded-batch", Batch: items}
	resp := srv.dispatch(req)
	if resp.OK || !strings.Contains(resp.Error, "lost its disk") {
		t.Fatalf("failed sharded batch = %+v, want the shard error surfaced", resp)
	}
	if got := srv.Snapshot().Counters[KeyIngestRejected]; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Retry with the SAME ID: the server-level window must have forgotten
	// it (otherwise the retry is absorbed and the failed shard's slice is
	// lost), while the per-shard windows inside the router dedupe the
	// shards that already committed.
	resp = srv.dispatch(req)
	if !resp.OK || resp.Applied != len(items) {
		t.Fatalf("retry = %+v, want OK with %d applied", resp, len(items))
	}
	if got, want := cluster.Sessions(), int64(len(items)); got != want {
		t.Fatalf("sessions after retry = %d, want exactly %d — an observation was dropped or double-applied", got, want)
	}

	// A genuine duplicate after full success is absorbed whole.
	resp = srv.dispatch(req)
	if !resp.OK {
		t.Fatalf("duplicate = %+v, want OK", resp)
	}
	if got, want := cluster.Sessions(), int64(len(items)); got != want {
		t.Fatalf("sessions after duplicate = %d, want %d", got, want)
	}
}
