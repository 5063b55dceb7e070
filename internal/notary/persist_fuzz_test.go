package notary_test

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
)

// FuzzSnapshotLoad feeds arbitrary gob payloads to Load. The harness
// seals each input in a valid v3 envelope, as seal does, so mutations get
// past the checksum and reach the decoder and the entry checks. Load must
// never panic, and a snapshot it accepts must re-Save to bytes that load
// and re-save identically.
func FuzzSnapshotLoad(f *testing.F) {
	g := certgen.NewGenerator(65)
	root, err := g.SelfSignedCA("Fuzz Snapshot Root")
	if err != nil {
		f.Fatal(err)
	}
	leaf, err := g.Leaf(root, "fuzz.example.com")
	if err != nil {
		f.Fatal(err)
	}
	// A freshly written snapshot, without its envelope.
	n := notary.New(certgen.Epoch, notary.WithCorpus(corpus.New()))
	n.Observe(notary.Observation{Chain: []*x509.Certificate{leaf.Cert, root.Cert}, Port: 443, SeenAt: certgen.Epoch})
	n.ObserveCA(root.Cert, 8883)
	var fresh bytes.Buffer
	if err := n.Save(&fresh); err != nil {
		f.Fatal(err)
	}
	f.Add(fresh.Bytes()[len(snapMagic) : fresh.Len()-sha256.Size])
	// The payloads the corruption tests seal.
	pristine := sealedSnapshot{
		Version:  3,
		At:       certgen.Epoch,
		Sessions: 3,
		DER:      [][]byte{leaf.Cert.Raw, root.Cert.Raw},
		Entries:  []sealedEntry{{Cert: 0, SeenAsLeaf: true, Sessions: 3}, {Cert: 1, Sessions: 3}},
	}
	badDER := append([]byte(nil), leaf.Cert.Raw...)
	badDER[len(badDER)/2] ^= 0xFF
	for _, mutate := range []func(s *sealedSnapshot){
		func(*sealedSnapshot) {},
		func(s *sealedSnapshot) { s.DER = [][]byte{badDER, root.Cert.Raw} },                            // der corruption
		func(s *sealedSnapshot) { s.Sessions = -1 },                                                    // negative sessions
		func(s *sealedSnapshot) { s.Version = 4 },                                                      // unknown version
		func(s *sealedSnapshot) { s.Entries[1].Cert = 5 },                                              // bad cert index
		func(s *sealedSnapshot) { s.Entries[1].Cert = 0 },                                              // index listed twice
		func(s *sealedSnapshot) { s.DER[1] = leaf.Cert.Raw },                                           // der at two indices
		func(s *sealedSnapshot) { s.Entries[0].Ports = []sealedPort{{Port: 443, Count: 2}, {993, 1}} }, // ports
	} {
		snap := pristine
		snap.DER = append([][]byte(nil), pristine.DER...)
		snap.Entries = append([]sealedEntry(nil), pristine.Entries...)
		mutate(&snap)
		f.Add(gobPayload(f, snap))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		n, err := notary.Load(bytes.NewReader(sealPayload(payload)), notary.WithCorpus(corpus.New()))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := n.Save(&first); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		back, err := notary.Load(bytes.NewReader(first.Bytes()), notary.WithCorpus(corpus.New()))
		if err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		var second bytes.Buffer
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save -> Load -> Save of an accepted snapshot changed its bytes")
		}
	})
}
