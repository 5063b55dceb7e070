package chain

import (
	"crypto/x509"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/rootstore"
)

// aospWithIntermediate is the per-probe build the trust-evaluation engine
// performs: the AOSP 4.4 store plus one presented intermediate.
func aospWithIntermediate(t testing.TB) (*rootstore.Store, []corpus.Ref) {
	t.Helper()
	store := cauniverse.Default().AOSP("4.4")
	g := certgen.NewGenerator(31)
	root, err := g.SelfSignedCA("Pool Alloc Root")
	if err != nil {
		t.Fatal(err)
	}
	inter, err := g.Intermediate(root, "Pool Alloc Intermediate")
	if err != nil {
		t.Fatal(err)
	}
	return store, []corpus.Ref{store.Corpus().InternCert(inter.Cert)}
}

// verifierSink keeps the benchmarked builds live.
var verifierSink *Verifier

// TestVerifierFromStoreAllocs pins the build cost of a store-backed
// verifier: a flat copy of the store, one candidate slice and the verifier
// itself — no per-member map or slice.
func TestVerifierFromStoreAllocs(t *testing.T) {
	store, inters := aospWithIntermediate(t)
	allocs := testing.AllocsPerRun(100, func() {
		verifierSink = NewVerifierFromStore(store, inters, certgen.Epoch)
	})
	if allocs > 4 {
		t.Errorf("NewVerifierFromStore(AOSP 4.4 + 1 intermediate) = %.0f allocs/op, want <= 4", allocs)
	}
}

func BenchmarkVerifierFromStore(b *testing.B) {
	store, inters := aospWithIntermediate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifierSink = NewVerifierFromStore(store, inters, certgen.Epoch)
	}
}

// TestRootDiscoveryOrderCrossSigned pins the order paths and roots are
// discovered in when issuer candidates share a subject: store members come
// before intermediates, and intermediates keep the order they were given.
// Root Y is trusted and also presented as a cross-certificate from X (same
// subject and key); intermediate Z is certified by both roots.
func TestRootDiscoveryOrderCrossSigned(t *testing.T) {
	g := certgen.NewGenerator(28)
	rootX, _ := g.SelfSignedCA("Order Root X")
	rootY, _ := g.SelfSignedCA("Order Root Y", certgen.WithKeyName("ykey"))
	crossY, _ := g.Intermediate(rootX, "Order Root Y", certgen.WithKeyName("ykey"))
	zByX, _ := g.Intermediate(rootX, "Order Inter Z", certgen.WithKeyName("zkey"))
	zByY, _ := g.Intermediate(rootY, "Order Inter Z", certgen.WithKeyName("zkey"))
	leaf, _ := g.Leaf(zByY, "order.example.com")

	v := NewVerifier(certs(rootX, rootY), certs(zByY, crossY, zByX), certgen.Epoch)
	want := [][]*certgen.Issued{
		{leaf, zByY, rootY},  // Y's store instance before its cross-certificate
		{leaf, zByY, crossY}, // the cross-certificate is Y by identity
		{leaf, zByX, rootX},  // zByX was given after zByY
	}
	chains := v.Chains(leaf.Cert)
	if len(chains) != len(want) {
		t.Fatalf("got %d chains, want %d", len(chains), len(want))
	}
	for i, chain := range chains {
		if len(chain) != len(want[i]) {
			t.Fatalf("chain %d has %d certs, want %d", i, len(chain), len(want[i]))
		}
		for j, c := range chain {
			if !c.Equal(want[i][j].Cert) {
				t.Errorf("chain %d member %d = %q, want %q", i, j, c.Subject.CommonName, want[i][j].Cert.Subject.CommonName)
			}
		}
	}
	roots := v.ValidatingRoots(leaf.Cert)
	if len(roots) != 2 || !roots[0].Equal(rootY.Cert) || !roots[1].Equal(rootX.Cert) {
		t.Errorf("validating roots = %v, want [Y's store instance, X]", commonNames(roots))
	}

	// Reversing the intermediates reverses discovery.
	v = NewVerifier(certs(rootX, rootY), certs(zByX, crossY, zByY), certgen.Epoch)
	roots = v.ValidatingRoots(leaf.Cert)
	if len(roots) != 2 || !roots[0].Equal(rootX.Cert) || !roots[1].Equal(rootY.Cert) {
		t.Errorf("validating roots = %v, want [X, Y]", commonNames(roots))
	}
}

func commonNames(cs []*x509.Certificate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Subject.CommonName
	}
	return out
}

// TestVerifierIgnoresLaterStoreChanges: a verifier answers from the store
// as it was at construction; removing its anchor or adding a new root to
// the store afterwards changes neither verdicts nor the pool key.
func TestVerifierIgnoresLaterStoreChanges(t *testing.T) {
	p := buildPKI(t)
	late, err := p.g.SelfSignedCA("Late Root")
	if err != nil {
		t.Fatal(err)
	}
	lateLeaf, err := p.g.Leaf(late, "late.example.com")
	if err != nil {
		t.Fatal(err)
	}
	store := rootstore.New("mutable")
	store.AddAll(certs(p.rootA, p.rootB))
	v := NewVerifierFromStore(store, corpus.Shared().InternChain(certs(p.interA)), certgen.Epoch)
	key := v.PoolKey()

	store.Remove(corpus.IdentityOf(p.rootA.Cert))
	store.Add(late.Cert)

	if !v.Validates(p.leafA.Cert) || !v.Validates(p.rootA.Cert) {
		t.Error("removing root A from the store after construction withdrew the verifier's trust in it")
	}
	if v.Validates(lateLeaf.Cert) || v.Validates(late.Cert) {
		t.Error("a root added to the store after construction is trusted by the verifier")
	}
	if roots := v.ValidatingRoots(p.leafA.Cert); len(roots) != 1 || !roots[0].Equal(p.rootA.Cert) {
		t.Errorf("validating roots of leaf A = %v, want [Root A]", commonNames(roots))
	}
	if got := v.PoolKey(); got != key {
		t.Errorf("pool key moved with the store: %s -> %s", key, got)
	}
	if fresh := NewVerifierFromStore(store, nil, certgen.Epoch); !fresh.Validates(lateLeaf.Cert) || fresh.Validates(p.leafA.Cert) {
		t.Error("a verifier built after the change does not see it")
	}
}
