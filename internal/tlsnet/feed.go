package tlsnet

import (
	"crypto/x509"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/notary"
	"tangledmass/internal/rootstore"
)

// Sink is a destination for the world's traffic: the bare in-memory
// Notary (via Feed) or a notaryshard.Cluster, in memory or durable. Write
// methods return an error because a cluster can refuse (fenced journal,
// failed shard); the in-memory Notary never does.
type Sink interface {
	ObserveAll(batch []notary.Observation) error
	ObserveCA(cert *x509.Certificate, port int) error
	ImportStore(s *rootstore.Store) error
}

// notarySink adapts the bare Notary's no-error write methods to Sink.
type notarySink struct{ n *notary.Notary }

func (s notarySink) ObserveAll(batch []notary.Observation) error {
	s.n.ObserveAll(batch)
	return nil
}
func (s notarySink) ObserveCA(cert *x509.Certificate, port int) error {
	s.n.ObserveCA(cert, port)
	return nil
}
func (s notarySink) ImportStore(st *rootstore.Store) error {
	s.n.ImportStore(st)
	return nil
}

// Feed streams the world's traffic into a Notary and imports the official
// root stores, reproducing the §4.2 database construction. It is FeedTo
// over the in-memory database, which cannot fail.
func Feed(w *World, n *notary.Notary) { _ = FeedTo(w, notarySink{n}) }

// FeedTo streams the world into any Sink:
//
//   - every leaf chain is observed on its port;
//   - the AOSP 4.4, Mozilla and iOS7 stores are imported (the Notary
//     carries the official store certificates);
//   - "Only Android" extras (Figure 2's recorded-but-store-less class) are
//     observed once in traffic, so the Notary has them on record;
//   - unrecorded extras, rooted-only roots and the interception root never
//     reach the Notary.
func FeedTo(w *World, sink Sink) error {
	leaves := w.Leaves()
	batch := make([]notary.Observation, len(leaves))
	for i, leaf := range leaves {
		batch[i] = notary.Observation{Chain: leaf.Chain, Port: leaf.Port, SeenAt: leaf.SeenAt}
	}
	if err := sink.ObserveAll(batch); err != nil {
		return err
	}
	u := w.Universe()
	for _, s := range []*rootstore.Store{u.AOSP("4.4"), u.Mozilla(), u.IOS7()} {
		if err := sink.ImportStore(s); err != nil {
			return err
		}
	}
	for _, r := range u.Roots() {
		if r.Class == cauniverse.ExtraAndroidRecorded {
			if err := sink.ObserveCA(r.Issued.Cert, 443); err != nil {
				return err
			}
		}
	}
	return nil
}
