package corpus_test

import (
	"fmt"
	"sync"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// reissuedRoots issues n self-signed roots and, for each, reissues more
// instances with the same subject and key but new validity (so new
// bytes). It returns the instances grouped by root.
func reissuedRoots(t *testing.T, seed int64, n, reissues int) [][]*certgen.Issued {
	t.Helper()
	g := certgen.NewGenerator(seed)
	out := make([][]*certgen.Issued, n)
	for i := range out {
		orig, err := g.SelfSignedCA(fmt.Sprintf("Handle Root %02d", i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = []*certgen.Issued{orig}
		for k := 1; k <= reissues; k++ {
			re, err := g.Reissue(orig, certgen.WithValidity(certgen.Epoch, certgen.Epoch.AddDate(10+k, 0, 0)))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], re)
		}
	}
	return out
}

func TestIdentityHandles(t *testing.T) {
	roots := reissuedRoots(t, 120, 3, 1)
	c := corpus.New()
	orig0 := c.InternCert(roots[0][0].Cert)
	orig1 := c.InternCert(roots[1][0].Cert)
	re0 := c.InternCert(roots[0][1].Cert)
	if re0 == orig0 {
		t.Fatal("a re-issued certificate must be its own entry")
	}
	h0, h1 := c.IdentityRefOf(orig0), c.IdentityRefOf(orig1)
	if h0 == 0 || h1 == 0 || h0 == h1 {
		t.Fatalf("distinct identities got handles %d and %d", h0, h1)
	}
	if got := c.IdentityRefOf(re0); got != h0 {
		t.Errorf("re-issued certificate has handle %d, its original %d", got, h0)
	}
	if got := c.Entry(re0).IdentityRef; got != h0 {
		t.Errorf("entry handle = %d, want %d", got, h0)
	}
	if got := c.LookupIdentity(certid.IdentityOf(roots[1][0].Cert)); got != h1 {
		t.Errorf("LookupIdentity = %d, want %d", got, h1)
	}
	if e := c.IdentityEntry(h0); e == nil || e.Ref != orig0 {
		t.Errorf("IdentityEntry(%d) = %v, want the first instance %d", h0, e, orig0)
	}
	// Unknown identities and foreign or invalid handles resolve to nothing.
	if got := c.LookupIdentity(certid.IdentityOf(roots[2][0].Cert)); got != 0 {
		t.Errorf("never-interned identity has handle %d", got)
	}
	if c.IdentityEntry(0) != nil || c.IdentityEntry(h1+1) != nil || c.IdentityRefOf(0) != 0 {
		t.Error("invalid handles must resolve to nothing")
	}
	if got := corpus.New().LookupIdentity(certid.IdentityOf(roots[0][0].Cert)); got != 0 {
		t.Errorf("handle %d from an empty corpus", got)
	}
}

// TestConcurrentInternIdentityHandles interns every instance of a set of
// re-issued roots from many goroutines at once, through all three intern
// paths in different orders. Entries are built outside the write lock, so
// racing writers build duplicates and all but one must be discarded:
// every goroutine must get one Ref per DER, and every identity exactly one
// handle. Meant for -race -count=N.
func TestConcurrentInternIdentityHandles(t *testing.T) {
	roots := reissuedRoots(t, 121, 24, 2)
	var ders [][]byte
	var ids []certid.Identity
	for _, group := range roots {
		for _, is := range group {
			ders = append(ders, is.Cert.Raw)
			ids = append(ids, certid.IdentityOf(is.Cert))
		}
	}
	c := corpus.New()
	const workers = 16
	got := make([][]corpus.Ref, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			refs := make([]corpus.Ref, len(ders))
			for k := range ders {
				i := (k*7 + w*5) % len(ders) // a different order per worker
				switch w % 3 {
				case 0:
					r, err := c.Intern(ders[i])
					if err != nil {
						t.Error(err)
					}
					refs[i] = r
				case 1:
					refs[i] = c.InternCert(roots[i/3][i%3].Cert)
				default:
					rs, err := c.InternAll([][]byte{ders[i], ders[(i+1)%len(ders)]})
					if err != nil {
						t.Error(err)
					}
					refs[i] = rs[0]
				}
			}
			got[w] = refs
		}(w)
	}
	wg.Wait()

	if c.Len() != len(ders) {
		t.Fatalf("corpus holds %d entries, want %d", c.Len(), len(ders))
	}
	handles := map[corpus.IdentityRef]certid.Identity{}
	for i := range ders {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("DER %d: worker %d got ref %d, worker 0 got %d", i, w, got[w][i], got[0][i])
			}
		}
		h := c.IdentityRefOf(got[0][i])
		if have, ok := handles[h]; ok && have != ids[i] {
			t.Fatalf("handle %d names two identities", h)
		}
		handles[h] = ids[i]
		if lh := c.LookupIdentity(ids[i]); lh != h {
			t.Fatalf("DER %d: LookupIdentity = %d, entry handle %d", i, lh, h)
		}
	}
	if len(handles) != len(roots) {
		t.Fatalf("%d handles for %d identities", len(handles), len(roots))
	}
	for h := corpus.IdentityRef(1); h <= corpus.IdentityRef(len(roots)); h++ {
		if _, ok := handles[h]; !ok {
			t.Errorf("handles are not dense: %d missing", h)
		}
	}
}
