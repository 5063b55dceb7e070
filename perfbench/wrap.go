package main

import (
	"context"
	"crypto/x509"
	"net"
	"sync/atomic"

	"tangledmass/internal/notary"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

// tracedDialer times each DialSite of the wrapped dialer — the origin's
// direct path ("tlsnet.dial") or the interception proxy ("mitm.dial").
type tracedDialer struct {
	inner  tlsnet.Dialer
	name   string
	tr     *tracer
	parent spanRef
}

func (d tracedDialer) DialSite(ctx context.Context, host string, port int) (net.Conn, error) {
	sp := d.tr.begin(d.name, d.parent, "")
	defer sp.end()
	return d.inner.DialSite(ctx, host, port)
}

// timedCluster sits between a notarynet.Server and the sharded cluster
// and times every server-side call into the cluster. It implements both
// notarynet.View and notarynet.BatchIngester, so the server's
// observe_batch dispatch takes the same BatchIngester path it takes with
// the bare cluster.
//
// Each server-side span is parented to the client span waiting on it,
// read from writer (observe, observe_batch) or reader (has_record, stats).
// The benchmark arranges that only one client request of each kind is in
// flight per server, so the link is unambiguous.
type timedCluster struct {
	c      *notaryshard.Cluster
	merges *obs.Counter           // the router's merge counter
	tr     atomic.Pointer[tracer] // nil while untraced
	writer *atomic.Pointer[spanRef]
	reader *atomic.Pointer[spanRef]
}

// mergeCounter is the router's count of full shard merges. The counter
// belongs to notaryshard, so it is looked up under that package's key.
func mergeCounter(router *obs.Observer) *obs.Counter {
	//lint:ignore obskey reads the counter notaryshard registers, under notaryshard's own key
	return router.Counter(notaryshard.KeyMergeTotal)
}

func parentOf(p *atomic.Pointer[spanRef]) spanRef {
	if r := p.Load(); r != nil {
		return *r
	}
	return spanRef{}
}

func (t *timedCluster) Observe(o notary.Observation) error {
	sp := t.tr.Load().begin("notaryshard.ingest", parentOf(t.writer), "")
	defer sp.end()
	return t.c.Observe(o)
}

func (t *timedCluster) ObserveCA(cert *x509.Certificate, port int) error {
	sp := t.tr.Load().begin("notaryshard.ingest", parentOf(t.writer), "")
	defer sp.end()
	return t.c.ObserveCA(cert, port)
}

func (t *timedCluster) ObserveBatch(id string, batch []notary.Observation) error {
	sp := t.tr.Load().begin("notaryshard.observe_batch", parentOf(t.writer), "")
	defer sp.end()
	return t.c.ObserveBatch(id, batch)
}

func (t *timedCluster) HasRecord(cert *x509.Certificate) bool {
	sp := t.tr.Load().begin("notaryshard.has_record", parentOf(t.reader), "")
	defer sp.end()
	return t.c.HasRecord(cert)
}

// mergedRead times a read served from the merged view, naming the span
// "notaryshard.merge" when the call had to rebuild the merge and
// "notaryshard.merged_read" when the memoized merge answered it.
func (t *timedCluster) mergedRead(read func() int) int {
	tr := t.tr.Load()
	if tr == nil {
		return read()
	}
	sp := tr.begin("notaryshard.merged_read", parentOf(t.reader), "")
	before := t.merges.Value()
	v := read()
	if t.merges.Value() != before {
		sp.s.Name = "notaryshard.merge"
	}
	sp.end()
	return v
}

func (t *timedCluster) NumUnique() int    { return t.mergedRead(t.c.NumUnique) }
func (t *timedCluster) NumUnexpired() int { return t.mergedRead(t.c.NumUnexpired) }

func (t *timedCluster) Sessions() int64 {
	sp := t.tr.Load().begin("notaryshard.sessions", parentOf(t.reader), "")
	defer sp.end()
	return t.c.Sessions()
}

func (t *timedCluster) ValidateOne(s *rootstore.Store) *notary.StoreReport {
	sp := t.tr.Load().begin("notaryshard.validate", parentOf(t.reader), "")
	defer sp.end()
	return t.c.ValidateOne(s)
}
