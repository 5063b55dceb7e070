package notary

import (
	"crypto/x509"
	"io"
	"reflect"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
)

// writtenJournal is a journal produced by the real writer: certificate
// introductions, an observation, a CA sighting and a store import in one
// group commit.
func writtenJournal(f *testing.F) []byte {
	f.Helper()
	g := certgen.NewGenerator(41)
	root, err := g.SelfSignedCA("WAL Fuzz Root")
	if err != nil {
		f.Fatal(err)
	}
	leaf, err := g.Leaf(root, "wal.example.com")
	if err != nil {
		f.Fatal(err)
	}
	c := corpus.New()
	refs := c.InternChain([]*x509.Certificate{leaf.Cert, root.Cert})
	fsys := faultfs.NewMem(1)
	if err := fsys.MkdirAll("journal"); err != nil {
		f.Fatal(err)
	}
	w, err := createWAL(fsys, "journal", "wal")
	if err != nil {
		f.Fatal(err)
	}
	w.addObs(c, Observation{Port: 443, SeenAt: certgen.Epoch}, refs)
	w.addCA(c, refs[1], 8883)
	w.addImport(c, refs[1])
	if _, _, err := w.commit(); err != nil {
		f.Fatal(err)
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	file, err := fsys.Open(faultfs.Join("journal", "wal"))
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	data, err := io.ReadAll(file)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWALScan feeds arbitrary bytes to the journal scanner. It must never
// panic; it either consumes the whole input or stops at a frame boundary
// inside it, and the prefix before that boundary scans clean to the same
// records — recovery truncates there and must lose nothing it kept.
func FuzzWALScan(f *testing.F) {
	magic := []byte(walMagic)
	frames := func(payloads ...[]byte) []byte {
		out := append([]byte{}, magic...)
		for _, p := range payloads {
			out = append(out, buildFrame(p)...)
		}
		return out
	}
	// TestWALScanClean
	f.Add(frames(obsPayload(443, 0, []uint32{0, 1}), obsPayload(993, 12345, []uint32{2})))
	// TestWALScanTornTails
	base := frames(obsPayload(443, 99, []uint32{0}))
	tail := buildFrame(obsPayload(8883, 100, []uint32{1, 2}))
	f.Add(append(append([]byte{}, base...), tail[:5]...))
	f.Add(append(append([]byte{}, base...), tail[:len(tail)-3]...))
	for _, at := range []int{len(base) + 10, len(magic) + 9} {
		flipped := append(append([]byte{}, base...), tail...)
		flipped[at] ^= 0x01
		f.Add(flipped)
	}
	// TestWALScanRejectsMalformedRecords
	for _, payload := range [][]byte{
		{},
		{0xEE, 1, 2, 3},
		{walRecObs, 1, 2},
		obsPayload(443, 0, []uint32{0})[:17],
		{walRecCert},
		{walRecCA, 1, 2, 3},
		{walRecImport, 1, 2, 3, 4, 5},
	} {
		f.Add(frames(payload))
	}
	f.Add(writtenJournal(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, tornAt, why := walScan(data)
		if tornAt == -1 {
			if why != "" {
				t.Fatalf("clean scan reported a reason: %q", why)
			}
			return
		}
		if tornAt < 0 || tornAt > int64(len(data)) || why == "" {
			t.Fatalf("tornAt = %d (%q) for %d input bytes", tornAt, why, len(data))
		}
		if tornAt < int64(len(magic)) {
			if tornAt != 0 || len(recs) != 0 {
				t.Fatalf("header failure at %d with %d records, want 0 and none", tornAt, len(recs))
			}
			return
		}
		again, againAt, againWhy := walScan(data[:tornAt])
		if againAt != -1 {
			t.Fatalf("prefix before the tear at %d is torn at %d (%s)", tornAt, againAt, againWhy)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("prefix scans to %d records, the full input kept %d", len(again), len(recs))
		}
	})
}
