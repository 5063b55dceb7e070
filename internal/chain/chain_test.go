package chain

import (
	"crypto/x509"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

type pki struct {
	g      *certgen.Generator
	rootA  *certgen.Issued
	rootB  *certgen.Issued
	interA *certgen.Issued
	leafA  *certgen.Issued // chains via interA to rootA
	leafB  *certgen.Issued // chains directly to rootB
	orphan *certgen.Issued // chains to an untrusted root
}

func buildPKI(t *testing.T) *pki {
	t.Helper()
	g := certgen.NewGenerator(21)
	must := func(i *certgen.Issued, err error) *certgen.Issued {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	p := &pki{g: g}
	p.rootA = must(g.SelfSignedCA("Root A"))
	p.rootB = must(g.SelfSignedCA("Root B"))
	p.interA = must(g.Intermediate(p.rootA, "Intermediate A"))
	p.leafA = must(g.Leaf(p.interA, "a.example.com"))
	p.leafB = must(g.Leaf(p.rootB, "b.example.com"))
	rogue := must(g.SelfSignedCA("Rogue Root"))
	p.orphan = must(g.Leaf(rogue, "evil.example.com"))
	// Canonicalize through the shared corpus: buildPKI regenerates identical
	// DER in every test, and the corpus hands back the first-interned
	// instance, so pointer comparisons against verifier output stay valid.
	for _, i := range []*certgen.Issued{p.rootA, p.rootB, p.interA, p.leafA, p.leafB, p.orphan} {
		i.Cert = corpus.CertOf(corpus.InternCert(i.Cert))
	}
	return p
}

func certs(is ...*certgen.Issued) []*x509.Certificate {
	out := make([]*x509.Certificate, len(is))
	for i, c := range is {
		out[i] = c.Cert
	}
	return out
}

func TestVerifyThroughIntermediate(t *testing.T) {
	p := buildPKI(t)
	v := NewVerifier(certs(p.rootA, p.rootB), certs(p.interA), certgen.Epoch)

	chain, err := v.Verify(p.leafA.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d, want 3", len(chain))
	}
	if chain[0] != p.leafA.Cert || chain[1] != p.interA.Cert || chain[2] != p.rootA.Cert {
		t.Error("chain order wrong, want leaf, intermediate, root")
	}
}

func TestVerifyDirect(t *testing.T) {
	p := buildPKI(t)
	v := NewVerifier(certs(p.rootA, p.rootB), certs(p.interA), certgen.Epoch)
	chain, err := v.Verify(p.leafB.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[1] != p.rootB.Cert {
		t.Errorf("direct chain wrong: %d certs", len(chain))
	}
}

func TestVerifyOrphanFails(t *testing.T) {
	p := buildPKI(t)
	v := NewVerifier(certs(p.rootA, p.rootB), certs(p.interA), certgen.Epoch)
	if _, err := v.Verify(p.orphan.Cert); err != ErrNoChain {
		t.Errorf("orphan err = %v, want ErrNoChain", err)
	}
	if v.Validates(p.orphan.Cert) {
		t.Error("orphan should not validate")
	}
}

func TestRootItselfValidates(t *testing.T) {
	p := buildPKI(t)
	v := NewVerifier(certs(p.rootA), nil, certgen.Epoch)
	chain, err := v.Verify(p.rootA.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 {
		t.Errorf("root chain length %d, want 1", len(chain))
	}
}

func TestExpiredLeafRejected(t *testing.T) {
	p := buildPKI(t)
	expired, err := p.g.Leaf(p.rootA, "old.example.com",
		certgen.WithValidity(certgen.Epoch.AddDate(-2, 0, 0), certgen.Epoch.AddDate(-1, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(certs(p.rootA), nil, certgen.Epoch)
	if v.Validates(expired.Cert) {
		t.Error("expired leaf should not validate at Epoch")
	}
	// But it does validate when the reference time is inside its window.
	v2 := NewVerifier(certs(p.rootA), nil, certgen.Epoch.AddDate(-1, -6, 0))
	if !v2.Validates(expired.Cert) {
		t.Error("leaf should validate inside its validity window")
	}
}

func TestExpiredIntermediateBreaksChain(t *testing.T) {
	g := certgen.NewGenerator(22)
	root, _ := g.SelfSignedCA("Exp Root")
	oldInter, err := g.Intermediate(root, "Expired Intermediate",
		certgen.WithValidity(certgen.Epoch.AddDate(-3, 0, 0), certgen.Epoch.AddDate(0, -1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := g.Leaf(oldInter, "x.example.com")
	v := NewVerifier([]*x509.Certificate{root.Cert}, []*x509.Certificate{oldInter.Cert}, certgen.Epoch)
	if v.Validates(leaf.Cert) {
		t.Error("chain through expired intermediate should not validate")
	}
}

func TestNonCAIssuerRejected(t *testing.T) {
	g := certgen.NewGenerator(23)
	root, _ := g.SelfSignedCA("CA Flag Root")
	// A leaf is not a CA; nothing it "signs" may validate. We simulate a
	// pool that (wrongly) contains a non-CA cert whose subject matches an
	// issuer name.
	leaf, _ := g.Leaf(root, "notaca.example.com")
	v := NewVerifier([]*x509.Certificate{root.Cert}, []*x509.Certificate{leaf.Cert}, certgen.Epoch)
	if len(v.candidateIssuers(v.c.InternCert(leaf.Cert))) != 1 {
		// leaf's issuer is root: exactly one candidate.
		t.Error("expected root as sole candidate issuer")
	}
}

func TestValidatingRootsCrossSigned(t *testing.T) {
	// A leaf whose issuer key is trusted under two distinct root identities
	// (the cross-signing situation behind "equivalent" roots in §4.2) must
	// attribute to both roots.
	g := certgen.NewGenerator(24)
	rootX, _ := g.SelfSignedCA("Cross Root X")
	rootY, _ := g.SelfSignedCA("Cross Root Y")
	// interZ is certified by both roots under the same subject+key.
	interZ1, _ := g.Intermediate(rootX, "Cross Inter Z", certgen.WithKeyName("zkey"))
	interZ2, _ := g.Intermediate(rootY, "Cross Inter Z", certgen.WithKeyName("zkey"))
	// A leaf signed by Z's key chains through either certificate of Z.
	leaf, _ := g.Leaf(&certgen.Issued{Cert: interZ1.Cert, Key: interZ1.Key}, "cross.example.com")

	v := NewVerifier(certs(rootX, rootY), []*x509.Certificate{interZ1.Cert, interZ2.Cert}, certgen.Epoch)
	roots := v.ValidatingRoots(leaf.Cert)
	if len(roots) != 2 {
		t.Fatalf("validating roots = %d, want 2 (cross-signed)", len(roots))
	}
	ids := map[string]bool{}
	for _, r := range roots {
		ids[r.Subject.CommonName] = true
	}
	if !ids["Cross Root X"] || !ids["Cross Root Y"] {
		t.Errorf("wrong roots attributed: %v", ids)
	}
}

func TestChainsReturnsAllPaths(t *testing.T) {
	g := certgen.NewGenerator(25)
	rootX, _ := g.SelfSignedCA("Multi Root X")
	rootY, _ := g.SelfSignedCA("Multi Root Y")
	i1, _ := g.Intermediate(rootX, "Multi Inter", certgen.WithKeyName("mk"))
	i2, _ := g.Intermediate(rootY, "Multi Inter", certgen.WithKeyName("mk"))
	leaf, _ := g.Leaf(i1, "multi.example.com")
	v := NewVerifier(certs(rootX, rootY), []*x509.Certificate{i1.Cert, i2.Cert}, certgen.Epoch)
	chains := v.Chains(leaf.Cert)
	if len(chains) != 2 {
		t.Fatalf("got %d chains, want 2", len(chains))
	}
	for _, c := range chains {
		if len(c) != 3 {
			t.Errorf("chain length %d, want 3", len(c))
		}
		if !c[0].Equal(leaf.Cert) {
			t.Error("chains must start at the leaf")
		}
	}
}

func TestMaxDepthBounds(t *testing.T) {
	g := certgen.NewGenerator(26)
	root, _ := g.SelfSignedCA("Deep Root")
	parent := root
	var inters []*x509.Certificate
	for i := 0; i < 6; i++ {
		inter, err := g.Intermediate(parent, "Deep Inter "+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		inters = append(inters, inter.Cert)
		parent = inter
	}
	leaf, _ := g.Leaf(parent, "deep.example.com")
	v := NewVerifier([]*x509.Certificate{root.Cert}, inters, certgen.Epoch)
	if !v.Validates(leaf.Cert) {
		t.Error("depth-8 chain should validate at DefaultMaxDepth")
	}
	v.SetMaxDepth(4)
	if v.Validates(leaf.Cert) {
		t.Error("chain longer than max depth should not validate")
	}
	v.SetMaxDepth(1) // ignored: < 2
	if v.maxDepth != 4 {
		t.Error("SetMaxDepth(<2) should be ignored")
	}
}

func TestDuplicateRootsDeduplicated(t *testing.T) {
	g := certgen.NewGenerator(27)
	root, _ := g.SelfSignedCA("Dup Root")
	re, _ := g.Reissue(root, certgen.WithValidity(certgen.Epoch, certgen.Epoch.AddDate(20, 0, 0)))
	leaf, _ := g.Leaf(root, "dup.example.com")
	v := NewVerifier([]*x509.Certificate{root.Cert, re.Cert}, nil, certgen.Epoch)
	roots := v.ValidatingRoots(leaf.Cert)
	if len(roots) != 1 {
		t.Errorf("equivalent roots should count once, got %d", len(roots))
	}
}

func TestNaiveMatchesIndexed(t *testing.T) {
	p := buildPKI(t)
	roots := certs(p.rootA, p.rootB)
	inters := certs(p.interA)
	v := NewVerifier(roots, inters, certgen.Epoch)
	n := NewNaiveVerifier(roots, inters, certgen.Epoch)
	for _, c := range []*x509.Certificate{p.leafA.Cert, p.leafB.Cert, p.orphan.Cert, p.rootA.Cert} {
		if v.Validates(c) != n.Validates(c) {
			t.Errorf("naive and indexed verifiers disagree on %s", certid.SubjectString(c))
		}
	}
}

func TestIsSelfSigned(t *testing.T) {
	p := buildPKI(t)
	if !IsSelfSigned(p.rootA.Cert) {
		t.Error("root should be self-signed")
	}
	if IsSelfSigned(p.leafA.Cert) {
		t.Error("leaf should not be self-signed")
	}
	if IsSelfSigned(p.interA.Cert) {
		t.Error("intermediate should not be self-signed")
	}
}

func TestVerifierAt(t *testing.T) {
	v := NewVerifier(nil, nil, certgen.Epoch)
	if !v.At().Equal(certgen.Epoch) {
		t.Error("At() should echo construction time")
	}
}
