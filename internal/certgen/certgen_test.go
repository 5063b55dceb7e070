package certgen

import (
	"crypto/ecdsa"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestSelfSignedCA(t *testing.T) {
	g := NewGenerator(1)
	ca, err := g.SelfSignedCA("Test Root CA", WithOrganization("Test Org"), WithCountry("US"))
	if err != nil {
		t.Fatal(err)
	}
	if !ca.Cert.IsCA {
		t.Error("root should be a CA")
	}
	if ca.Cert.Subject.CommonName != "Test Root CA" {
		t.Errorf("CN = %q", ca.Cert.Subject.CommonName)
	}
	if err := ca.Cert.CheckSignatureFrom(ca.Cert); err != nil {
		t.Errorf("self-signature invalid: %v", err)
	}
	if _, ok := ca.Key.Public().(*ecdsa.PublicKey); !ok {
		t.Errorf("default key type = %T, want ECDSA", ca.Key.Public())
	}
}

func TestIntermediateAndLeafChain(t *testing.T) {
	g := NewGenerator(1)
	root, err := g.SelfSignedCA("Chain Root")
	if err != nil {
		t.Fatal(err)
	}
	inter, err := g.Intermediate(root, "Chain Intermediate")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := g.Leaf(inter, "www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if err := inter.Cert.CheckSignatureFrom(root.Cert); err != nil {
		t.Errorf("intermediate signature: %v", err)
	}
	if err := leaf.Cert.CheckSignatureFrom(inter.Cert); err != nil {
		t.Errorf("leaf signature: %v", err)
	}
	if leaf.Cert.IsCA {
		t.Error("leaf should not be a CA")
	}
	if len(leaf.Cert.DNSNames) != 1 || leaf.Cert.DNSNames[0] != "www.example.com" {
		t.Errorf("leaf SANs = %v", leaf.Cert.DNSNames)
	}

	// Full stdlib verification closes the loop.
	roots := x509.NewCertPool()
	roots.AddCert(root.Cert)
	inters := x509.NewCertPool()
	inters.AddCert(inter.Cert)
	_, err = leaf.Cert.Verify(x509.VerifyOptions{
		Roots:         roots,
		Intermediates: inters,
		CurrentTime:   Epoch,
		DNSName:       "www.example.com",
	})
	if err != nil {
		t.Errorf("stdlib Verify failed: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := NewGenerator(99).SelfSignedCA("Det Root", WithOrganization("O"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(99).SelfSignedCA("Det Root", WithOrganization("O"))
	if err != nil {
		t.Fatal(err)
	}
	// The whole certificate, signature included, is a pure function of the
	// seed, so the pin holds across processes.
	if string(a.Cert.Raw) != string(b.Cert.Raw) {
		t.Error("same seed should produce byte-identical certificates")
	}
	const want = "edfff3f0e76d783c077257b57236b1a1662b5a6931f74e4f943017ae29518c34"
	if got := sha256.Sum256(a.Cert.Raw); hex.EncodeToString(got[:]) != want {
		t.Errorf("seed-99 root DER SHA-256 = %x, want %s", got, want)
	}
	c, err := NewGenerator(100).SelfSignedCA("Det Root", WithOrganization("O"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Cert.RawSubjectPublicKeyInfo) == string(c.Cert.RawSubjectPublicKeyInfo) {
		t.Error("different seeds should produce different keys")
	}
}

func TestRSADeterminism(t *testing.T) {
	a, err := NewGenerator(7).SelfSignedCA("RSA Det", WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(7).SelfSignedCA("RSA Det", WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	// RSA keys AND signatures are deterministic, so certificates are
	// byte-identical across generator instances (and processes).
	if string(a.Cert.Raw) != string(b.Cert.Raw) {
		t.Error("RSA certs with the same seed should be byte-identical")
	}
}

func TestDeterministicPrime(t *testing.T) {
	p, err := deterministicPrime(newDRBG(1, "p"), 256)
	if err != nil {
		t.Fatal(err)
	}
	if p.BitLen() != 256 {
		t.Errorf("prime bit length = %d, want 256", p.BitLen())
	}
	if !p.ProbablyPrime(40) {
		t.Error("not prime")
	}
	q, _ := deterministicPrime(newDRBG(1, "p"), 256)
	if p.Cmp(q) != 0 {
		t.Error("same stream should yield the same prime")
	}
	if _, err := deterministicPrime(newDRBG(1, "p"), 8); err == nil {
		t.Error("tiny prime sizes should error")
	}
}

func TestExpiredOption(t *testing.T) {
	g := NewGenerator(1)
	ca, err := g.SelfSignedCA("Firmaprofesional Analogue", Expired())
	if err != nil {
		t.Fatal(err)
	}
	if !ca.Cert.NotAfter.Before(Epoch) {
		t.Errorf("NotAfter %v should precede Epoch %v", ca.Cert.NotAfter, Epoch)
	}
}

func TestWithRSA(t *testing.T) {
	g := NewGenerator(1)
	ca, err := g.SelfSignedCA("RSA Root", WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	pub, ok := ca.Key.Public().(*rsa.PublicKey)
	if !ok {
		t.Fatalf("key type = %T, want RSA", ca.Key.Public())
	}
	if pub.N.BitLen() != 1024 {
		t.Errorf("modulus bits = %d, want 1024", pub.N.BitLen())
	}
	if err := ca.Cert.CheckSignatureFrom(ca.Cert); err != nil {
		t.Errorf("RSA self-signature invalid: %v", err)
	}
}

func TestReissueSameKeyNewValidity(t *testing.T) {
	g := NewGenerator(1)
	orig, err := g.SelfSignedCA("Reissued Root", WithOrganization("O"), WithCountry("DE"))
	if err != nil {
		t.Fatal(err)
	}
	re, err := g.Reissue(orig, WithValidity(Epoch.AddDate(0, 0, 1), Epoch.AddDate(20, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if string(orig.Cert.Raw) == string(re.Cert.Raw) {
		t.Error("reissued cert should be byte-distinct")
	}
	if orig.Cert.Subject.String() != re.Cert.Subject.String() {
		t.Errorf("subjects differ: %q vs %q", orig.Cert.Subject, re.Cert.Subject)
	}
	if string(orig.Cert.RawSubjectPublicKeyInfo) != string(re.Cert.RawSubjectPublicKeyInfo) {
		t.Error("reissued cert should reuse the same key")
	}
	if orig.Cert.NotAfter.Equal(re.Cert.NotAfter) {
		t.Error("reissue should have carried the new validity")
	}
}

func TestReissueRSAKeepsKey(t *testing.T) {
	g := NewGenerator(5)
	orig, err := g.SelfSignedCA("RSA Reissue", WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	re, err := g.Reissue(orig, WithValidity(Epoch, Epoch.AddDate(30, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if string(orig.Cert.RawSubjectPublicKeyInfo) != string(re.Cert.RawSubjectPublicKeyInfo) {
		t.Error("RSA reissue should reuse the same key")
	}
}

func TestSerialsDistinct(t *testing.T) {
	g := NewGenerator(1)
	a, _ := g.SelfSignedCA("A")
	b, _ := g.SelfSignedCA("B")
	if a.Cert.SerialNumber.Cmp(b.Cert.SerialNumber) == 0 {
		t.Error("serials should be distinct")
	}
}

func TestDefaultValidityCoversEpoch(t *testing.T) {
	g := NewGenerator(1)
	ca, err := g.SelfSignedCA("Valid Root")
	if err != nil {
		t.Fatal(err)
	}
	if Epoch.Before(ca.Cert.NotBefore) || Epoch.After(ca.Cert.NotAfter) {
		t.Errorf("Epoch outside default validity [%v, %v]", ca.Cert.NotBefore, ca.Cert.NotAfter)
	}
}

func TestDRBGDeterministicAndDistinct(t *testing.T) {
	read := func(seed int64, label string) []byte {
		b := make([]byte, 64)
		newDRBG(seed, label).Read(b)
		return b
	}
	if string(read(1, "x")) != string(read(1, "x")) {
		t.Error("same seed+label should repeat")
	}
	if string(read(1, "x")) == string(read(1, "y")) {
		t.Error("different labels should differ")
	}
	if string(read(1, "x")) == string(read(2, "x")) {
		t.Error("different seeds should differ")
	}
}

func TestDRBGShortReads(t *testing.T) {
	d := newDRBG(3, "short")
	var got []byte
	for i := 0; i < 10; i++ {
		b := make([]byte, 7)
		if n, err := d.Read(b); n != 7 || err != nil {
			t.Fatalf("Read = %d, %v", n, err)
		}
		got = append(got, b...)
	}
	all := make([]byte, 70)
	newDRBG(3, "short").Read(all)
	if string(got) != string(all) {
		t.Error("chunked reads should equal one large read")
	}
}

func TestLeafValidityOption(t *testing.T) {
	g := NewGenerator(1)
	root, _ := g.SelfSignedCA("VR")
	nb := Epoch.AddDate(0, -1, 0)
	na := Epoch.AddDate(0, 1, 0)
	leaf, err := g.Leaf(root, "v.example.com", WithValidity(nb, na))
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.Cert.NotBefore.Equal(nb) || !leaf.Cert.NotAfter.Equal(na) {
		t.Errorf("validity = [%v, %v], want [%v, %v]", leaf.Cert.NotBefore, leaf.Cert.NotAfter, nb, na)
	}
}

func TestEpochIsFixed(t *testing.T) {
	want := time.Date(2013, time.November, 1, 0, 0, 0, 0, time.UTC)
	if !Epoch.Equal(want) {
		t.Errorf("Epoch = %v, want %v", Epoch, want)
	}
}

// leafBatch issues the CA fixtures on g and returns requests mixing ECDSA
// and RSA parents, SAN shapes, validities and key names.
func leafBatch(t *testing.T, g *Generator) []LeafRequest {
	t.Helper()
	root, err := g.SelfSignedCA("Batch Root")
	if err != nil {
		t.Fatal(err)
	}
	inter, err := g.Intermediate(root, "Batch Intermediate")
	if err != nil {
		t.Fatal(err)
	}
	rsaRoot, err := g.SelfSignedCA("Batch RSA Root", WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	parents := []*Issued{root, inter, rsaRoot}
	var reqs []LeafRequest
	for i := 0; i < 24; i++ {
		r := LeafRequest{Parent: parents[i%len(parents)], CN: fmt.Sprintf("batch%02d.example.com", i)}
		switch i % 4 {
		case 1:
			r.Opts = []Option{WithKeyName("batch-shared-key"), WithOrganization("Server Operator")}
		case 2:
			r.Opts = []Option{WithValidity(Epoch.AddDate(-3, 0, 0), Epoch.AddDate(-1, 0, 0))}
		case 3:
			r.Opts = []Option{WithIPAddresses(net.IPv4(10, 0, 0, byte(i))), WithDNSNames("alt.example.com")}
		}
		reqs = append(reqs, r)
	}
	return reqs
}

func TestLeavesMatchesSequentialLeaf(t *testing.T) {
	batchGen, seqGen := NewGenerator(11), NewGenerator(11)
	batchReqs, seqReqs := leafBatch(t, batchGen), leafBatch(t, seqGen)
	batch, err := batchGen.Leaves(batchReqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(batchReqs) {
		t.Fatalf("Leaves returned %d certificates for %d requests", len(batch), len(batchReqs))
	}
	for i, r := range seqReqs {
		seq, err := seqGen.Leaf(r.Parent, r.CN, r.Opts...)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		// The generator decides everything — serial, key, subject,
		// validity, SANs, issuer and the signature's nonce.
		if string(got.Cert.Raw) != string(seq.Cert.Raw) {
			t.Errorf("request %d (%s): batch certificate differs from sequential Leaf", i, r.CN)
		}
		if got.Cert.Subject.CommonName != batchReqs[i].CN {
			t.Errorf("result %d is %q, want request order (%q)", i, got.Cert.Subject.CommonName, batchReqs[i].CN)
		}
		if err := got.Cert.CheckSignatureFrom(batchReqs[i].Parent.Cert); err != nil {
			t.Errorf("request %d (%s): signature does not verify under its parent: %v", i, r.CN, err)
		}
	}
}

func TestLeavesInvalidRequest(t *testing.T) {
	g := NewGenerator(1)
	root, err := g.SelfSignedCA("Invalid Batch Root")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []LeafRequest{
		{Parent: root, CN: "ok.example.com"},
		{Parent: root, CN: "tiny-key.example.com", Opts: []Option{WithRSA(8)}},
		{Parent: root, CN: "after.example.com"},
	}
	got, err := g.Leaves(reqs)
	if err == nil {
		t.Fatal("a request with an 8-bit RSA key should fail the batch")
	}
	if got != nil {
		t.Errorf("failed batch returned %d certificates, want none", len(got))
	}
}

func TestConcurrentIssuanceDistinctSerials(t *testing.T) {
	g := NewGenerator(3)
	root, err := g.SelfSignedCA("Concurrent Root")
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 6, 8
	one := func(iss *Issued, err error) ([]*Issued, error) { return []*Issued{iss}, err }
	results := make([][]*Issued, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []*Issued
			for i := 0; i < perWorker; i++ {
				cn := fmt.Sprintf("w%d-%d.example.com", w, i)
				var (
					iss []*Issued
					err error
				)
				switch w % 3 {
				case 0:
					iss, err = one(g.Leaf(root, cn))
				case 1:
					iss, err = g.Leaves([]LeafRequest{{Parent: root, CN: cn}, {Parent: root, CN: "b-" + cn}})
				default:
					iss, err = one(g.SelfSignedCA(cn))
				}
				if err != nil {
					t.Error(err)
					return
				}
				out = append(out, iss...)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	seen := map[string]string{root.Cert.SerialNumber.String(): "root"}
	for _, out := range results {
		for _, iss := range out {
			serial := iss.Cert.SerialNumber.String()
			if prev, dup := seen[serial]; dup {
				t.Errorf("serial %s issued to both %s and %s", serial, prev, iss.Cert.Subject.CommonName)
			}
			seen[serial] = iss.Cert.Subject.CommonName
		}
	}
	// Per round of three workers: one Leaf, a two-leaf batch, one root.
	if want := 1 + perWorker*(workers/3)*(1+2+1); len(seen) != want {
		t.Errorf("distinct serials = %d, want %d", len(seen), want)
	}
}
