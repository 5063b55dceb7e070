package rootstore_test

import (
	"crypto/x509"
	"fmt"
	"runtime"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/rootstore"
)

// TestCloneAllocatesFlat pins the pointer-free layout: cloning a 150-root
// store copies two flat slices, so it allocates a few KiB in three
// allocations.
func TestCloneAllocatesFlat(t *testing.T) {
	s := cauniverse.Default().AOSP("4.4")
	if s.Len() != 150 {
		t.Fatalf("AOSP 4.4 has %d roots, want 150", s.Len())
	}
	var sink *rootstore.Store
	if n := testing.AllocsPerRun(100, func() { sink = s.Clone("clone") }); n > 3 {
		t.Errorf("Clone allocates %v times, want <= 3", n)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink = s.Clone("clone")
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Clone of %d roots: %d B", s.Len(), got)
	if got > 4<<10 {
		t.Errorf("Clone of %d roots allocates %d B, want <= 4096", s.Len(), got)
	}
	if !rootstore.Equal(sink, s) || sink.ContentKey() != s.ContentKey() {
		t.Error("clone differs from its source")
	}
}

// reissuedPair issues n roots and one re-issued instance of each: same
// subject and key, different bytes.
func reissuedPair(t *testing.T, seed int64, n int) (orig, re []*x509.Certificate) {
	t.Helper()
	g := certgen.NewGenerator(seed)
	for i := 0; i < n; i++ {
		o, err := g.SelfSignedCA(fmt.Sprintf("Layout Root %d", i))
		if err != nil {
			t.Fatal(err)
		}
		r, err := g.Reissue(o, certgen.WithValidity(certgen.Epoch, certgen.Epoch.AddDate(25, 0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		orig, re = append(orig, o.Cert), append(re, r.Cert)
	}
	return orig, re
}

func TestRemoveThenAddReissuedGoesLast(t *testing.T) {
	orig, re := reissuedPair(t, 130, 5)
	s := rootstore.NewIn("s", corpus.New())
	s.AddAll(orig)
	if !s.Remove(certid.IdentityOf(orig[2])) {
		t.Fatal("Remove of a member reported absent")
	}
	if s.ContainsIdentity(certid.IdentityOf(re[2])) {
		t.Fatal("identity still present after Remove")
	}
	if !s.Add(re[2]) {
		t.Fatal("re-issued instance rejected after its identity was removed")
	}
	certs := s.Certificates()
	if last := certs[len(certs)-1]; last != re[2] {
		t.Errorf("last member is %s, want the re-issued instance", last.Subject)
	}
	if got := s.Get(certid.IdentityOf(orig[2])); got != re[2] {
		t.Error("Get must return the re-issued instance now held")
	}
	fresh := rootstore.NewIn("fresh", s.Corpus())
	fresh.AddAll([]*x509.Certificate{orig[0], orig[1], orig[3], orig[4], re[2]})
	if s.ContentKey() != fresh.ContentKey() {
		t.Errorf("ContentKey %s, fresh store in the same order %s", s.ContentKey(), fresh.ContentKey())
	}
	if !rootstore.Equal(s, fresh) {
		t.Error("store differs from a fresh one with the same members")
	}
}

// TestCrossCorpusReissued compares stores of two corpora whose shared
// roots are different instances of the same identities: they must match
// by identity, never by handle or bytes.
func TestCrossCorpusReissued(t *testing.T) {
	orig, re := reissuedPair(t, 131, 4)
	a := rootstore.NewIn("a", corpus.New())
	a.AddAll(orig[:3])
	b := rootstore.NewIn("b", corpus.New())
	b.AddAll([]*x509.Certificate{re[3], re[2], re[1]})

	in := rootstore.Intersect("a∩b", a, b)
	if got := in.Certificates(); len(got) != 2 || got[0] != orig[1] || got[1] != orig[2] {
		t.Errorf("Intersect = %d certs, want a's instances of roots 1 and 2 in a's order", len(got))
	}
	if in.Corpus() != a.Corpus() {
		t.Error("Intersect must live in a's corpus")
	}
	d := rootstore.Diff(a, b)
	if len(d.OnlyA) != 1 || d.OnlyA[0] != orig[0] ||
		len(d.OnlyB) != 1 || d.OnlyB[0] != re[3] ||
		len(d.Both) != 2 || d.Both[0] != orig[1] || d.Both[1] != orig[2] {
		t.Errorf("Diff = %d/%d/%d, want only-a root 0, only-b root 3, both roots 1 and 2",
			len(d.OnlyA), len(d.OnlyB), len(d.Both))
	}
	if rootstore.Equal(a, b) {
		t.Error("stores with different identities compare equal")
	}
	if !rootstore.Equal(in, rootstore.Intersect("b∩a", b, a)) {
		t.Error("the two intersections hold the same identities in different corpora")
	}
	if n := rootstore.ByteIntersectCount(a, b); n != 0 {
		t.Errorf("ByteIntersectCount = %d, want 0: no instance is byte-identical", n)
	}

	// An identity set spanning both corpora counts roots 1 and 2 once.
	var left, right rootstore.IdentitySet
	left.AddStore(a)
	right.AddStore(b)
	if left.Len() != 3 || right.Len() != 3 {
		t.Fatalf("single-corpus sets hold %d and %d identities, want 3 and 3", left.Len(), right.Len())
	}
	left.AddStore(b)
	if n := left.Len(); n != 4 {
		t.Errorf("two-corpus identity set holds %d identities, want 4", n)
	}
}
