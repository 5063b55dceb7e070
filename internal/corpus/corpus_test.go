package corpus_test

import (
	"bytes"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"sync"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// genCerts issues n distinct certificates from a fresh deterministic
// generator.
func genCerts(t *testing.T, seed int64, n int) []*x509.Certificate {
	t.Helper()
	g := certgen.NewGenerator(seed)
	root, err := g.SelfSignedCA("Corpus Test Root")
	if err != nil {
		t.Fatal(err)
	}
	out := []*x509.Certificate{root.Cert}
	for i := 1; i < n; i++ {
		leaf, err := g.Leaf(root, fmt.Sprintf("host-%d.example.com", i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, leaf.Cert)
	}
	return out
}

func TestInternDeduplicatesByContent(t *testing.T) {
	c := corpus.New()
	certs := genCerts(t, 100, 3)

	r1, err := c.Intern(certs[0].Raw)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == 0 {
		t.Fatal("valid intern returned the zero Ref")
	}
	r2, err := c.Intern(certs[0].Raw)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same DER interned to different refs: %d, %d", r1, r2)
	}
	r3, err := c.Intern(certs[1].Raw)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("distinct DER interned to the same ref")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Interned != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 interned / 1 hit", st)
	}
	if st.Bytes != int64(len(certs[0].Raw)+len(certs[1].Raw)) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

func TestInternCopiesItsInput(t *testing.T) {
	c := corpus.New()
	cert := genCerts(t, 101, 1)[0]
	buf := bytes.Clone(cert.Raw)
	ref, err := c.Intern(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0 // the tap reuses its reassembly buffer exactly like this
	}
	if !bytes.Equal(c.DER(ref), cert.Raw) {
		t.Fatal("corpus entry aliases the caller's buffer")
	}
	if got := c.Cert(ref); !bytes.Equal(got.Raw, cert.Raw) {
		t.Fatal("parsed certificate aliases the caller's buffer")
	}
}

func TestInternBadDERFails(t *testing.T) {
	c := corpus.New()
	if _, err := c.Intern([]byte("not a certificate")); err == nil {
		t.Fatal("garbage DER interned without error")
	}
	if c.Len() != 0 {
		t.Fatal("failed intern left an entry behind")
	}
}

func TestEntryPrecomputedFields(t *testing.T) {
	c := corpus.New()
	cert := genCerts(t, 102, 1)[0]
	ref, err := c.Intern(cert.Raw)
	if err != nil {
		t.Fatal(err)
	}
	e := c.Entry(ref)
	if e == nil || e.Ref != ref {
		t.Fatalf("entry = %+v", e)
	}
	if e.Identity != certid.IdentityOf(cert) {
		t.Error("precomputed identity disagrees with certid.IdentityOf")
	}
	if e.SHA1 != certid.SHA1Fingerprint(cert) {
		t.Error("precomputed SHA-1 disagrees with certid")
	}
	if e.SHA256 != certid.SHA256Fingerprint(cert) {
		t.Error("precomputed SHA-256 disagrees with certid")
	}
	if e.MD5 != certid.MD5Fingerprint(cert) {
		t.Error("precomputed MD5 disagrees with certid")
	}
	if e.SubjectHash != certid.SubjectHash32(cert) {
		t.Error("precomputed subject hash disagrees with certid")
	}
	if e.Digest.Hex() != e.SHA256 {
		t.Error("digest and SHA-256 fingerprint disagree")
	}
}

func TestInternCertPointerFastPath(t *testing.T) {
	c := corpus.New()
	cert := genCerts(t, 103, 1)[0]
	r1 := c.InternCert(cert)
	before := c.Stats()
	r2 := c.InternCert(cert)
	if r1 != r2 {
		t.Fatalf("refs differ: %d, %d", r1, r2)
	}
	after := c.Stats()
	if after.Hits != before.Hits+1 || after.Interned != before.Interned {
		t.Fatalf("repeat pointer intern not a hit: %+v -> %+v", before, after)
	}
	if c.Cert(r1) != cert {
		t.Fatal("first-interned certificate was not adopted as canonical")
	}
}

func TestInvalidRefs(t *testing.T) {
	c := corpus.New()
	if c.Entry(0) != nil || c.Cert(0) != nil || c.DER(0) != nil {
		t.Fatal("zero ref resolved")
	}
	if c.Entry(99) != nil {
		t.Fatal("out-of-range ref resolved")
	}
	if c.SHA1(99) != "" || (c.Identity(99) != certid.Identity{}) {
		t.Fatal("out-of-range ref produced non-zero derived values")
	}
}

// TestConcurrentIntern hammers one corpus from many goroutines interning a
// mix of identical and distinct DER (and repeated cert pointers). Run under
// -race this pins the locking discipline; the assertions pin ref stability:
// every goroutine must agree on the ref for a given content.
func TestConcurrentIntern(t *testing.T) {
	const workers = 16
	c := corpus.New()
	certs := genCerts(t, 104, 8)
	refs := make([][]corpus.Ref, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]corpus.Ref, 0, len(certs)*3)
			for round := 0; round < 3; round++ {
				for i, cert := range certs {
					var ref corpus.Ref
					if (w+round+i)%2 == 0 {
						var err error
						ref, err = c.Intern(cert.Raw)
						if err != nil {
							t.Error(err)
							return
						}
					} else {
						ref = c.InternCert(cert)
					}
					out = append(out, ref)
				}
			}
			refs[w] = out
		}(w)
	}
	wg.Wait()

	if c.Len() != len(certs) {
		t.Fatalf("len = %d, want %d", c.Len(), len(certs))
	}
	for w := 1; w < workers; w++ {
		for i, ref := range refs[w] {
			if ref != refs[0][i] {
				t.Fatalf("worker %d saw ref %d for item %d, worker 0 saw %d", w, ref, i, refs[0][i])
			}
		}
	}
	// The same content must keep its ref on every later lookup.
	for _, cert := range certs {
		r1 := c.InternCert(cert)
		r2, err := c.Intern(cert.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("ref drifted: %d vs %d", r1, r2)
		}
	}
}

func TestDigestXORRoundTrip(t *testing.T) {
	c := corpus.New()
	certs := genCerts(t, 106, 3)
	var acc corpus.Digest
	zero := acc
	var digests []corpus.Digest
	for _, cert := range certs {
		ref, err := c.Intern(cert.Raw)
		if err != nil {
			t.Fatal(err)
		}
		d := c.Entry(ref).Digest
		digests = append(digests, d)
		acc.XOR(d)
	}
	// XOR is order-independent: folding in reverse yields the same value.
	var rev corpus.Digest
	for i := len(digests) - 1; i >= 0; i-- {
		rev.XOR(digests[i])
	}
	if acc != rev {
		t.Fatal("XOR accumulator depends on order")
	}
	// Removing every member returns to zero.
	for _, d := range digests {
		acc.XOR(d)
	}
	if acc != zero {
		t.Fatal("XOR add/remove did not cancel")
	}
}

func TestParsePEMSkipsNonCertBlocks(t *testing.T) {
	c := corpus.New()
	certs := genCerts(t, 107, 2)
	var bundle []byte
	bundle = append(bundle, pemEncode("CERTIFICATE", certs[0].Raw)...)
	bundle = append(bundle, pemEncode("RSA PRIVATE KEY", []byte("not a cert"))...)
	bundle = append(bundle, pemEncode("CERTIFICATE", certs[1].Raw)...)
	refs, err := c.ParsePEM(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("refs = %d, want 2", len(refs))
	}
	for i, ref := range refs {
		if !bytes.Equal(c.DER(ref), certs[i].Raw) {
			t.Fatalf("ref %d does not match input order", i)
		}
	}
	if _, err := c.ParsePEM(pemEncode("CERTIFICATE", []byte("garbage"))); err == nil {
		t.Fatal("garbage CERTIFICATE block parsed")
	}
}

func TestSharedHelpers(t *testing.T) {
	a := genCerts(t, 108, 1)[0]
	if corpus.IdentityOf(a) != certid.IdentityOf(a) {
		t.Fatal("corpus.IdentityOf disagrees with certid.IdentityOf")
	}
	if corpus.CertOf(corpus.InternCert(a)) == nil {
		t.Fatal("shared intern round trip failed")
	}
}

func pemEncode(typ string, der []byte) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: typ, Bytes: der})
}

func TestInternAll(t *testing.T) {
	c := corpus.New()
	certs := genCerts(t, 109, 3)
	pre, err := c.Intern(certs[0].Raw)
	if err != nil {
		t.Fatal(err)
	}

	// Batch mixing an already-interned cert, a new cert, and an in-batch
	// duplicate: refs come back in input order, deduplicated.
	refs, err := c.InternAll([][]byte{certs[0].Raw, certs[1].Raw, certs[1].Raw, certs[2].Raw})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 4 {
		t.Fatalf("refs = %d, want 4", len(refs))
	}
	if refs[0] != pre {
		t.Fatal("already-interned DER got a fresh ref from InternAll")
	}
	if refs[1] != refs[2] {
		t.Fatal("in-batch duplicate DER interned to different refs")
	}
	for i, want := range []int{0, 1, 1, 2} {
		if !bytes.Equal(c.DER(refs[i]), certs[want].Raw) {
			t.Fatalf("ref %d does not round-trip to its input DER", i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}

	// A second pass is all hits and adds nothing.
	again, err := c.InternAll([][]byte{certs[2].Raw, certs[0].Raw})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != refs[3] || again[1] != pre {
		t.Fatal("second InternAll pass returned different refs")
	}
	if c.Len() != 3 {
		t.Fatalf("len grew to %d on an all-hit batch", c.Len())
	}

	// A bad DER anywhere fails the whole batch without corrupting state.
	if _, err := c.InternAll([][]byte{certs[0].Raw, []byte("junk")}); err == nil {
		t.Fatal("garbage DER in a batch interned without error")
	}
	if c.Len() != 3 {
		t.Fatalf("failed batch left entries behind: len = %d", c.Len())
	}

	empty, err := c.InternAll(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("InternAll(nil) = %v, %v", empty, err)
	}
}

// TestCheckSignatureMemo checks both outcomes of a signature check once per
// (child, parent) pair: a repeated check, passing or failing, is answered
// from the memo with the same outcome.
func TestCheckSignatureMemo(t *testing.T) {
	g := certgen.NewGenerator(112)
	root, err := g.SelfSignedCA("Memo Root")
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := g.SelfSignedCA("Memo Root", certgen.WithKeyName("Memo Impostor"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := g.Leaf(root, "memo.example.com")
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.New()
	l, r, bad := c.InternCert(leaf.Cert), c.InternCert(root.Cert), c.InternCert(impostor.Cert)

	for round := 0; round < 2; round++ {
		if !c.CheckSignature(l, r) {
			t.Fatalf("round %d: leaf does not verify under its issuer", round)
		}
		if c.CheckSignature(l, bad) {
			t.Fatalf("round %d: leaf verifies under an impostor with its issuer's name", round)
		}
		if c.CheckSignature(r, l) {
			t.Fatalf("round %d: a non-CA verifies a signature", round)
		}
		if got := c.Stats().SignatureChecks; got != 3 {
			t.Fatalf("round %d: %d verifications run, want 3", round, got)
		}
	}
	if c.CheckSignature(0, r) || c.CheckSignature(l, 99) {
		t.Fatal("an invalid ref passed a signature check")
	}
}
