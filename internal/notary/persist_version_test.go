package notary_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
)

const snapMagic = "TANGLED-NOTARY-SNAP3\n"

// sealedSnapshot is the v3 payload reconstructed field for field. gob
// matches struct fields by name, so sealing one of these produces the
// bytes a real writer would — including payloads Save never writes.
type sealedSnapshot struct {
	Version  int
	At       time.Time
	Sessions int64
	DER      [][]byte
	Entries  []sealedEntry
}

// sealedEntry is the entry type as earlier v3 writers declared it: it
// still names the inline DER field of v1, always empty in v3.
type sealedEntry struct {
	DER        []byte
	Cert       int
	SeenAsLeaf bool
	FromStore  bool
	Sessions   int64
	FirstSeen  time.Time
	LastSeen   time.Time
	Ports      []sealedPort
}

type sealedPort struct {
	Port  int
	Count int64
}

// seal encodes snap in the v3 envelope with a valid SHA-256 trailer, so
// Load gets past the checksum and reaches its structural checks.
func seal(t *testing.T, snap sealedSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return append(buf.Bytes(), sum[:]...)
}

// wantLoadErr asserts that Load rejects data with an error naming want.
func wantLoadErr(t *testing.T, data []byte, want string) {
	t.Helper()
	_, err := notary.Load(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("snapshot accepted, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want one containing %q", err, want)
	}
}

// TestLoadV3WithRetiredDERField loads a snapshot whose entry type still
// declares the retired inline DER field, as earlier v3 writers did, and
// checks full fidelity, then re-saves it in the current layout and checks
// again.
func TestLoadV3WithRetiredDERField(t *testing.T) {
	g := certgen.NewGenerator(60)
	root, err := g.SelfSignedCA("V3 Root")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := g.Leaf(root, "v3.example.com")
	if err != nil {
		t.Fatal(err)
	}
	seen := certgen.Epoch.Add(24 * time.Hour)
	snap := seal(t, sealedSnapshot{
		Version:  3,
		At:       certgen.Epoch,
		Sessions: 7,
		DER:      [][]byte{leaf.Cert.Raw, root.Cert.Raw},
		Entries: []sealedEntry{
			{
				Cert:       0,
				SeenAsLeaf: true,
				Sessions:   7,
				FirstSeen:  certgen.Epoch,
				LastSeen:   seen,
				Ports:      []sealedPort{{Port: 443, Count: 5}, {Port: 993, Count: 2}},
			},
			{Cert: 1, FromStore: true},
		},
	})
	check := func(n *notary.Notary, label string) {
		t.Helper()
		if n.NumUnique() != 2 || n.Sessions() != 7 {
			t.Fatalf("%s: unique/sessions = %d/%d, want 2/7", label, n.NumUnique(), n.Sessions())
		}
		if !n.At().Equal(certgen.Epoch) {
			t.Errorf("%s: reference time not restored", label)
		}
		le := n.Lookup(leaf.Cert)
		if le == nil || !le.SeenAsLeaf || le.Sessions != 7 {
			t.Fatalf("%s: leaf entry = %+v", label, le)
		}
		if le.Ports[443] != 5 || le.Ports[993] != 2 {
			t.Errorf("%s: ports = %v", label, le.Ports)
		}
		if !le.FirstSeen.Equal(certgen.Epoch) || !le.LastSeen.Equal(seen) {
			t.Errorf("%s: observation window = %v..%v", label, le.FirstSeen, le.LastSeen)
		}
		re := n.Lookup(root.Cert)
		if re == nil || !re.FromStore || re.SeenAsLeaf {
			t.Fatalf("%s: root entry = %+v", label, re)
		}
	}

	n, err := notary.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("loading snapshot with retired DER field: %v", err)
	}
	check(n, "load")
	var resaved bytes.Buffer
	if err := n.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	back, err := notary.Load(&resaved)
	if err != nil {
		t.Fatal(err)
	}
	check(back, "reload")
}

// TestSaveLoadSaveIdempotent pins the upgrade path as a fixed point: once a
// database has been through Save, loading and re-saving must reproduce the
// bytes exactly.
func TestSaveLoadSaveIdempotent(t *testing.T) {
	n, _ := fedDB(t)
	var first bytes.Buffer
	if err := n.Save(&first); err != nil {
		t.Fatal(err)
	}
	back, err := notary.Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save -> Load -> Save changed the snapshot bytes")
	}
}

// TestLoadRejectsBareGob: the legacy v1/v2 layouts were bare gob streams
// without the envelope; Load refuses them before decoding anything.
func TestLoadRejectsBareGob(t *testing.T) {
	g := certgen.NewGenerator(62)
	root, err := g.SelfSignedCA("Bare Gob Root")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sealedSnapshot{
		Version: 2,
		At:      certgen.Epoch,
		DER:     [][]byte{root.Cert.Raw},
		Entries: []sealedEntry{{Cert: 0, FromStore: true}},
	}); err != nil {
		t.Fatal(err)
	}
	wantLoadErr(t, buf.Bytes(), "missing magic prefix")
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	for _, v := range []int{0, 1, 2, 4, 99} {
		wantLoadErr(t, seal(t, sealedSnapshot{Version: v, At: certgen.Epoch}), "carries version")
	}
}

func TestLoadRejectsBadCertIndex(t *testing.T) {
	g := certgen.NewGenerator(61)
	root, err := g.SelfSignedCA("Bad Index Root")
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, 1, 5} {
		wantLoadErr(t, seal(t, sealedSnapshot{
			Version: 3,
			At:      certgen.Epoch,
			DER:     [][]byte{root.Cert.Raw},
			Entries: []sealedEntry{{Cert: idx, SeenAsLeaf: true, Sessions: 1}},
		}), "references certificate")
	}
}

// TestLoadRejectsDuplicateEntry: Save writes one entry per certificate. A
// sealed snapshot listing one certificate twice — the same index, or the
// same DER at two indices — must be rejected, not loaded with the second
// entry silently overwriting the first under a header that counts both.
func TestLoadRejectsDuplicateEntry(t *testing.T) {
	g := certgen.NewGenerator(63)
	root, err := g.SelfSignedCA("Duplicate Root")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := g.Leaf(root, "dup.example.com")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][][]byte{
		"index listed twice": {leaf.Cert.Raw},
		"der at two indices": {leaf.Cert.Raw, leaf.Cert.Raw},
	}
	for name, der := range cases {
		t.Run(name, func(t *testing.T) {
			wantLoadErr(t, seal(t, sealedSnapshot{
				Version:  3,
				At:       certgen.Epoch,
				Sessions: 5,
				DER:      der,
				Entries: []sealedEntry{
					{Cert: 0, SeenAsLeaf: true, Sessions: 4},
					{Cert: len(der) - 1, Sessions: 1},
				},
			}), "repeats the certificate")
		})
	}
}
