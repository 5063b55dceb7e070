package corpus_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// variantDERs returns n distinct, parseable certificate encodings: copies
// of one issued leaf whose common name and SAN carry a fixed-width counter.
// Their signatures no longer verify, which the corpus never checks;
// rewriting bytes instead of signing keeps a table of 16k entries cheap to
// build.
func variantDERs(t *testing.T, n int) [][]byte {
	t.Helper()
	const placeholder = "qqqqqqqq"
	g := certgen.NewGenerator(110)
	root, err := g.SelfSignedCA("Corpus Growth Root")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := g.Leaf(root, placeholder+".example.com")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(leaf.Cert.Raw, []byte(placeholder)) == 0 {
		t.Fatal("placeholder not found in the issued certificate")
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.ReplaceAll(leaf.Cert.Raw, []byte(placeholder), []byte(fmt.Sprintf("%08x", i)))
	}
	return out
}

// TestConcurrentReadersDuringInserts resolves every published ref while
// InternCert and InternAll append to the table. Run under -race it pins
// the append-only publication: readers take no lock, so any reader that
// could see a slot before it is written, or a slot being rewritten, is a
// reported race. Each ref must resolve to its own content throughout, and
// its signature must check out under the root that issued every
// certificate, through the memo the readers share.
func TestConcurrentReadersDuringInserts(t *testing.T) {
	c := corpus.New()
	certs := genCerts(t, 111, 256)
	root := c.InternCert(certs[0])
	want := make(map[corpus.Digest]certid.Identity, len(certs))
	for _, cert := range certs {
		want[digestOf(cert.Raw)] = certid.IdentityOf(cert)
	}
	half := len(certs) / 2

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for _, cert := range certs[:half] {
			ref := c.InternCert(cert)
			if !bytes.Equal(c.DER(ref), cert.Raw) {
				t.Errorf("InternCert ref %d resolves to other content", ref)
			}
		}
	}()
	go func() {
		defer writers.Done()
		for lo := half; lo < len(certs); lo += 16 {
			batch := make([][]byte, 0, 16)
			for _, cert := range certs[lo:min(lo+16, len(certs))] {
				batch = append(batch, cert.Raw)
			}
			refs, err := c.InternAll(batch)
			if err != nil {
				t.Error(err)
				return
			}
			for i, ref := range refs {
				if !bytes.Equal(c.DER(ref), batch[i]) {
					t.Errorf("InternAll ref %d resolves to other content", ref)
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := c.Len()
				for ref := corpus.Ref(1); int(ref) <= n; ref++ {
					e := c.Entry(ref)
					if e == nil || e.Ref != ref {
						t.Errorf("published ref %d of %d resolved to %+v", ref, n, e)
						return
					}
					id, ok := want[digestOf(e.DER)]
					if !ok || e.Digest != digestOf(e.DER) {
						t.Errorf("ref %d: DER does not match its digest", ref)
						return
					}
					if c.Cert(ref) != e.Cert || !bytes.Equal(e.Cert.Raw, e.DER) || c.Identity(ref) != id {
						t.Errorf("ref %d: certificate or identity is not its own", ref)
						return
					}
					if !c.CheckSignature(ref, root) {
						t.Errorf("ref %d: signature does not verify under the root", ref)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if c.Len() != len(certs) {
		t.Fatalf("len = %d, want %d", c.Len(), len(certs))
	}
	for _, cert := range certs {
		if e := c.Entry(c.InternCert(cert)); !bytes.Equal(e.DER, cert.Raw) {
			t.Fatalf("ref %d does not resolve to its certificate", e.Ref)
		}
	}
}

func digestOf(der []byte) corpus.Digest { return sha256.Sum256(der) }

// TestInternCostIndependentOfTableSize interns the same 1,000 new
// certificates into an empty table and into one already holding 16,000.
// An append-only table allocates about the same for both; copying the
// table on every insert would allocate 1,000 × 16,000 pointers (~128 MB)
// more for the large one.
func TestInternCostIndependentOfTableSize(t *testing.T) {
	const prefill, inserts = 16000, 1000
	ders := variantDERs(t, prefill+inserts)
	fresh := ders[prefill:]

	allocated := func(c *corpus.Corpus) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, der := range fresh {
			if _, err := c.Intern(der); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	empty := allocated(corpus.New())
	big := corpus.New()
	if _, err := big.InternAll(ders[:prefill]); err != nil {
		t.Fatal(err)
	}
	full := allocated(big)
	if big.Len() != prefill+inserts {
		t.Fatalf("len = %d, want %d", big.Len(), prefill+inserts)
	}
	t.Logf("%d inserts allocated %d B into an empty table, %d B into a %d-entry table", inserts, empty, full, prefill)
	if full > 2*empty {
		t.Fatalf("%d inserts into a %d-entry table allocated %d B, more than twice the %d B into an empty table",
			inserts, prefill, full, empty)
	}
}
