package chain

import (
	"crypto/x509"
	"fmt"
	"reflect"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// memoPKI is four roots R0..R3, an intermediate I_k under each R_k with
// leavesPer leaves under it, a cross-signed copy I1x of I1 (same subject
// and key) under R2, and a forged leaf that names I0 as issuer but was
// signed by another key.
type memoPKI struct {
	roots, inters, leaves []*x509.Certificate
	forged                *x509.Certificate
}

const leavesPer = 5

func buildMemoPKI(t *testing.T) memoPKI {
	t.Helper()
	g := certgen.NewGenerator(41)
	must := func(i *certgen.Issued, err error) *certgen.Issued {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	var p memoPKI
	var roots, inters []*certgen.Issued
	for k := 0; k < 4; k++ {
		roots = append(roots, must(g.SelfSignedCA(fmt.Sprintf("Memo Root %d", k))))
		inters = append(inters, must(g.Intermediate(roots[k], fmt.Sprintf("Memo Intermediate %d", k))))
		p.roots = append(p.roots, roots[k].Cert)
		p.inters = append(p.inters, inters[k].Cert)
		for i := 0; i < leavesPer; i++ {
			p.leaves = append(p.leaves, must(g.Leaf(inters[k], fmt.Sprintf("h%d-%d.example.com", k, i))).Cert)
		}
	}
	p.inters = append(p.inters, must(g.Intermediate(roots[2], "Memo Intermediate 1")).Cert)
	impostor := must(g.Intermediate(roots[0], "Memo Intermediate 0", certgen.WithKeyName("Memo Impostor")))
	p.forged = must(g.Leaf(impostor, "forged.example.com")).Cert
	return p
}

// sweep validates every probe through v and returns the validating-root
// identities and the signature verifications the sweep ran.
func sweep(v *Verifier, probes []*x509.Certificate) ([][]certid.Identity, int64) {
	before := v.Corpus().Stats().SignatureChecks
	out := make([][]certid.Identity, len(probes))
	for i, cert := range probes {
		out[i] = v.ValidatingRootIdentities(cert)
	}
	return out, v.Corpus().Stats().SignatureChecks - before
}

// TestSignatureMemoSharedAcrossVerifiers builds two verifiers whose root
// unions differ, {R0,R1} and {R1,R2}, over one corpus — the shape of the
// Table 3 and category sweeps — and compares them with the same verifiers
// over fresh, separate corpora.
//
// A verifier checks only edges into issuers that can reach one of its
// roots by name: in {R0,R1} those are R0, R1, I0 and I1; in {R1,R2} they
// are R1, R2, I1, I1x and I2. Edges each sweep checks, with n = leavesPer:
//
//   - {R0,R1}: the I0 and I1 leaves → their intermediate (2n), the forged
//     leaf → I0 (1, fails), I0→R0 and I1→R1 (2): 2n+3. The I1 leaves →
//     I1x, and every edge into I2 or I3, would end at a root outside the
//     pool and go unchecked.
//   - {R1,R2} on a fresh corpus: the I1 leaves → I1 and → I1x (2n), the
//     I2 leaves → I2 (n), I1→R1, I1x→R2 and I2→R2 (3): 3n+3. The forged
//     leaf's issuer I0 cannot reach R1 or R2, so it costs nothing.
//   - {R1,R2} after {R0,R1} on the shared corpus: only the edges the first
//     sweep pruned are new, the I1 leaves → I1x, the I2 leaves → I2, I1x→R2
//     and I2→R2: 2n+2.
func TestSignatureMemoSharedAcrossVerifiers(t *testing.T) {
	p := buildMemoPKI(t)
	probes := append(append([]*x509.Certificate{}, p.leaves...), p.forged)
	first, second := p.roots[0:2], p.roots[1:3]

	shared := corpus.New()
	gotA, nA := sweep(NewVerifierIn(shared, first, p.inters, certgen.Epoch), probes)
	gotB, nB := sweep(NewVerifierIn(shared, second, p.inters, certgen.Epoch), probes)
	wantA, freshA := sweep(NewVerifierIn(corpus.New(), first, p.inters, certgen.Epoch), probes)
	wantB, freshB := sweep(NewVerifierIn(corpus.New(), second, p.inters, certgen.Epoch), probes)

	if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("shared-corpus answers differ from fresh corpora:\nfirst  %v\n  want %v\nsecond %v\n  want %v", gotA, wantA, gotB, wantB)
	}
	if want := int64(2*leavesPer + 3); nA != want || freshA != want {
		t.Fatalf("first sweep ran %d verifications (fresh corpus %d), want %d", nA, freshA, want)
	}
	if want := int64(3*leavesPer + 3); freshB != want {
		t.Fatalf("second sweep on a fresh corpus ran %d verifications, want %d", freshB, want)
	}
	if want := int64(2*leavesPer + 2); nB != want {
		t.Fatalf("second sweep on the shared corpus ran %d verifications, want %d (the edges the first sweep pruned)", nB, want)
	}

	// Cross-signing is visible: an I1 leaf reaches R1 and R2 in the second
	// pool. The forged leaf reaches nothing in either.
	if ids := gotB[leavesPer]; len(ids) != 2 {
		t.Fatalf("I1 leaf reaches %v in {R1,R2}, want both roots", ids)
	}
	if gotA[len(probes)-1] != nil || gotB[len(probes)-1] != nil {
		t.Fatal("forged leaf validated")
	}

	// A third verifier over the same pool as the first checks nothing:
	// the memo outlives the verifiers that filled it.
	if _, n := sweep(NewVerifierIn(shared, first, p.inters, certgen.Epoch), probes); n != 0 {
		t.Fatalf("repeat sweep ran %d verifications, want 0", n)
	}
}
