package chain

import (
	"crypto/x509"
	"fmt"
	"testing"
	"testing/quick"

	"tangledmass/internal/certgen"
)

// buildLadder issues a root and a ladder of n intermediates, returning all
// CA certs (root first) and a leaf under the last rung.
func buildLadder(t *testing.T, seed int64, n int) (cas []*x509.Certificate, leaf *x509.Certificate) {
	t.Helper()
	g := certgen.NewGenerator(seed)
	root, err := g.SelfSignedCA("Ladder Root")
	if err != nil {
		t.Fatal(err)
	}
	cas = append(cas, root.Cert)
	parent := root
	for i := 0; i < n; i++ {
		inter, err := g.Intermediate(parent, "Ladder Rung "+string(rune('A'+i)))
		if err != nil {
			t.Fatal(err)
		}
		cas = append(cas, inter.Cert)
		parent = inter
	}
	l, err := g.Leaf(parent, "ladder.example.com")
	if err != nil {
		t.Fatal(err)
	}
	return cas, l.Cert
}

// TestPropChainRequiresEveryRung: removing any single intermediate from the
// pool breaks the (only) path; the full pool always validates.
func TestPropChainRequiresEveryRung(t *testing.T) {
	const rungs = 4
	cas, leaf := buildLadder(t, 31, rungs)
	root, inters := cas[0], cas[1:]

	full := NewVerifier([]*x509.Certificate{root}, inters, certgen.Epoch)
	if !full.Validates(leaf) {
		t.Fatal("full pool should validate")
	}
	for skip := range inters {
		var pool []*x509.Certificate
		for i, c := range inters {
			if i != skip {
				pool = append(pool, c)
			}
		}
		v := NewVerifier([]*x509.Certificate{root}, pool, certgen.Epoch)
		if v.Validates(leaf) {
			t.Errorf("pool missing rung %d should not validate", skip)
		}
	}
}

// agreePKI is the PKI TestPropVerifiersAgree samples trust and pools from:
// roots R0..R3, each with an intermediate I_k and leaves; a second rung J0
// under I0, with leaves; I1 cross-signed by R2; R3, expired at the
// reference time, cross-signed unexpired by R0, so a trusted R3 anchors
// only through that cross-certificate; a store-less internet root U with
// leaves; an intermediate D that only U certifies, with leaves, and a leaf
// forged in D's name under another key; and an expired intermediate X
// under R1, with leaves.
type agreePKI struct {
	roots  []*x509.Certificate // R0..R3
	cas    []*x509.Certificate // every CA a pool may hold, R0..R3 included
	probes []*x509.Certificate // every certificate above
}

func buildAgreePKI(t *testing.T) agreePKI {
	t.Helper()
	g := certgen.NewGenerator(35)
	must := func(i *certgen.Issued, err error) *certgen.Issued {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	var p agreePKI
	ca := func(i *certgen.Issued) *certgen.Issued {
		p.cas = append(p.cas, i.Cert)
		return i
	}
	leaves := func(parent *certgen.Issued, name string) {
		for i := 0; i < 2; i++ {
			p.probes = append(p.probes, must(g.Leaf(parent, fmt.Sprintf("%s-%d.example.com", name, i))).Cert)
		}
	}
	var roots []*certgen.Issued
	var i0 *certgen.Issued
	for k := 0; k < 4; k++ {
		var opts []certgen.Option
		if k == 3 {
			opts = append(opts, certgen.Expired())
		}
		root := ca(must(g.SelfSignedCA(fmt.Sprintf("Agree Root %d", k), opts...)))
		inter := ca(must(g.Intermediate(root, fmt.Sprintf("Agree Intermediate %d", k))))
		leaves(inter, fmt.Sprintf("i%d", k))
		p.roots, roots = append(p.roots, root.Cert), append(roots, root)
		if k == 0 {
			i0 = inter
		}
	}
	leaves(ca(must(g.Intermediate(i0, "Agree Rung J0"))), "j0")
	ca(must(g.Intermediate(roots[2], "Agree Intermediate 1")))
	ca(must(g.Intermediate(roots[0], "Agree Root 3")))
	internet := ca(must(g.SelfSignedCA("Agree Internet Root")))
	leaves(internet, "u")
	leaves(ca(must(g.Intermediate(internet, "Agree Dead End"))), "d")
	impostor := must(g.Intermediate(internet, "Agree Dead End", certgen.WithKeyName("Agree Impostor")))
	p.probes = append(p.probes, must(g.Leaf(impostor, "forged.example.com")).Cert)
	leaves(ca(must(g.Intermediate(roots[1], "Agree Expired", certgen.Expired()))), "x")
	p.probes = append(p.probes, p.cas...)
	return p
}

// prunedIssuers counts the issuers v skips without a signature check on
// the first step from cert: CAs named as its issuer that cannot reach a
// trusted root.
func prunedIssuers(v *Verifier, cert *x509.Certificate) int {
	ref := v.c.InternCert(cert)
	e := v.c.Entry(ref)
	if !v.timeValid(cert) || v.isRoot(ref) {
		return 0
	}
	n := 0
	for _, cand := range v.keyRun(e.IssuerKey) {
		if !cand.live() && v.names(cand.ref, e) {
			n++
		}
	}
	return n
}

// TestPropVerifiersAgree: the indexed verifier, which checks no signature
// into an issuer that cannot reach a trusted root, and the naive one, which
// checks every name-matching signature, agree on every certificate of
// agreePKI, for random trusted subsets of R0..R3 over random pools.
func TestPropVerifiersAgree(t *testing.T) {
	p := buildAgreePKI(t)
	var validated, pruned int
	err := quick.Check(func(trust uint8, held uint16) bool {
		var roots, pool []*x509.Certificate
		for i, r := range p.roots {
			if trust&(1<<i) != 0 {
				roots = append(roots, r)
			}
		}
		for i, c := range p.cas {
			if held&(1<<i) != 0 {
				pool = append(pool, c)
			}
		}
		a := NewVerifier(roots, pool, certgen.Epoch)
		b := NewNaiveVerifier(roots, pool, certgen.Epoch)
		for _, c := range p.probes {
			got := a.Validates(c)
			if got != b.Validates(c) {
				t.Logf("trust %04b, pool %014b: %q validates %v, naive says %v", trust&15, held, c.Subject.CommonName, got, !got)
				return false
			}
			if got {
				validated++
			}
			pruned += prunedIssuers(a, c)
		}
		return true
	}, &quick.Config{MaxCount: 128})
	if err != nil {
		t.Error(err)
	}
	if validated == 0 || pruned == 0 {
		t.Errorf("over every case %d certificates validated and %d issuers were pruned; want both nonzero", validated, pruned)
	}
}

// TestPropChainsAreValidPaths: every returned chain is structurally sound —
// starts at the query, ends at a root, and each link is issuer-signed.
func TestPropChainsAreValidPaths(t *testing.T) {
	cas, leaf := buildLadder(t, 33, 3)
	root, inters := cas[0], cas[1:]
	v := NewVerifier([]*x509.Certificate{root}, inters, certgen.Epoch)
	for _, c := range append([]*x509.Certificate{leaf}, cas...) {
		for _, path := range v.Chains(c) {
			if !path[0].Equal(c) {
				t.Fatal("chain must start at the query certificate")
			}
			if !v.isRoot(v.c.InternCert(path[len(path)-1])) {
				t.Fatal("chain must end at a trusted root")
			}
			for i := 0; i+1 < len(path); i++ {
				if err := path[i].CheckSignatureFrom(path[i+1]); err != nil {
					t.Fatalf("link %d not signed by its successor: %v", i, err)
				}
			}
		}
	}
}

// TestPropValidityWindowMonotone: a verifier at a time outside any cert's
// window never validates more than one inside all windows.
func TestPropValidityWindowMonotone(t *testing.T) {
	cas, leaf := buildLadder(t, 34, 2)
	root, inters := cas[0], cas[1:]
	inside := NewVerifier([]*x509.Certificate{root}, inters, certgen.Epoch)
	before := NewVerifier([]*x509.Certificate{root}, inters, certgen.Epoch.AddDate(-20, 0, 0))
	after := NewVerifier([]*x509.Certificate{root}, inters, certgen.Epoch.AddDate(20, 0, 0))
	if !inside.Validates(leaf) {
		t.Fatal("in-window verification should pass")
	}
	if before.Validates(leaf) || after.Validates(leaf) {
		t.Error("out-of-window verification should fail")
	}
}
