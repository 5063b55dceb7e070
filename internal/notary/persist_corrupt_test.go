package notary_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
)

// v3Snapshot builds a valid checksummed snapshot to corrupt.
func v3Snapshot(t *testing.T) []byte {
	t.Helper()
	c := corpus.New()
	stream := dbObs(dbChains(t, 80, 4), 20)
	return saveBytes(t, expectedNotary(c, stream))
}

// TestLoadV3RejectsTruncation: a v3 snapshot cut at any length must fail
// loudly with a notary: error — the torn file a crash mid-write leaves
// behind must never decode into silently partial state.
func TestLoadV3RejectsTruncation(t *testing.T) {
	snap := v3Snapshot(t)
	cuts := []int{0, 1, len("TANGLED-NOTARY-SNAP3\n"), 40, len(snap) / 2, len(snap) - 33, len(snap) - 1}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(snap) {
			continue
		}
		_, err := notary.Load(bytes.NewReader(snap[:cut]))
		if err == nil {
			t.Errorf("snapshot truncated to %d of %d bytes accepted", cut, len(snap))
			continue
		}
		if !strings.HasPrefix(err.Error(), "notary:") {
			t.Errorf("truncation at %d: error %q should carry the notary: prefix", cut, err)
		}
	}
}

// TestLoadV3RejectsBitFlips: the SHA-256 trailer makes every single-bit
// flip detectable, anywhere in the file — magic, payload, or trailer.
func TestLoadV3RejectsBitFlips(t *testing.T) {
	snap := v3Snapshot(t)
	offsets := []int{0, 5, len("TANGLED-NOTARY-SNAP3\n") + 1, len(snap) / 3, len(snap) / 2, len(snap) - 40, len(snap) - 1}
	for _, off := range offsets {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x01
		if _, err := notary.Load(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at offset %d of %d accepted", off, len(snap))
		}
	}
}

// TestLoadRejectsCorruption: structural damage inside a correctly sealed
// snapshot — a certificate that no longer parses, a negative session
// count — passes the checksum and must still be rejected rather than
// half-loaded.
func TestLoadRejectsCorruption(t *testing.T) {
	g := certgen.NewGenerator(81)
	root, err := g.SelfSignedCA("Corrupt Root")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := g.Leaf(root, "corrupt.example.com")
	if err != nil {
		t.Fatal(err)
	}
	pristine := sealedSnapshot{
		Version:  3,
		At:       certgen.Epoch,
		Sessions: 3,
		DER:      [][]byte{leaf.Cert.Raw, root.Cert.Raw},
		Entries: []sealedEntry{
			{Cert: 0, SeenAsLeaf: true, Sessions: 3},
			{Cert: 1, Sessions: 3},
		},
	}
	if _, err := notary.Load(bytes.NewReader(seal(t, pristine))); err != nil {
		t.Fatalf("pristine sealed snapshot rejected: %v", err)
	}

	t.Run("der corruption", func(t *testing.T) {
		// Break the leaf's inner structure; the certificate parse on the
		// way into the corpus must refuse it.
		bad := append([]byte(nil), leaf.Cert.Raw...)
		bad[len(bad)/2] ^= 0xFF
		snap := pristine
		snap.DER = [][]byte{bad, root.Cert.Raw}
		wantLoadErr(t, seal(t, snap), "snapshot certificate")
	})
	t.Run("negative sessions", func(t *testing.T) {
		snap := pristine
		snap.Sessions = -1
		wantLoadErr(t, seal(t, snap), "negative session count")
	})
}

// TestSaveFileCrashSafeProtocol pins SaveFile's write-fsync-rename-fsync
// sequence by replaying it on the crashable filesystem: at every boundary
// a crash must leave either the complete old snapshot or the complete new
// one — never a torn or missing file.
func TestSaveFileCrashSafeProtocol(t *testing.T) {
	c := corpus.New()
	old := expectedNotary(c, dbObs(dbChains(t, 82, 3), 10))
	upd := expectedNotary(c, dbObs(dbChains(t, 82, 3), 30))
	oldBytes, updBytes := saveBytes(t, old), saveBytes(t, upd)

	// Profile run: count the boundaries one SaveFile crosses. CrashAfter(0)
	// resets the boundary counter after the setup writes.
	profile := faultfs.NewMem(1)
	writeRaw(t, profile, "data", "db.snap", oldBytes)
	profile.CrashAfter(0)
	if err := upd.SaveFileIn(profile, "data", "db.snap"); err != nil {
		t.Fatal(err)
	}
	total := profile.Boundaries()
	if total < 3 {
		t.Fatalf("SaveFile crossed %d boundaries, want write+fsync+rename+dirsync", total)
	}

	for cut := 1; cut <= total; cut++ {
		mem := faultfs.NewMem(int64(cut))
		writeRaw(t, mem, "data", "db.snap", oldBytes)
		mem.CrashAfter(cut)
		err := upd.SaveFileIn(mem, "data", "db.snap")
		mem.Reboot()
		f, oerr := mem.Open("data/db.snap")
		if oerr != nil {
			t.Fatalf("crash@%d: snapshot name vanished: %v", cut, oerr)
		}
		got, rerr := io.ReadAll(f)
		_ = f.Close()
		if rerr != nil {
			t.Fatalf("crash@%d: %v", cut, rerr)
		}
		switch {
		case bytes.Equal(got, oldBytes): // crash before publication: old survives
		case bytes.Equal(got, updBytes):
			if err == nil && cut < total {
				t.Errorf("crash@%d: SaveFile claimed success before the protocol finished", cut)
			}
		default:
			t.Fatalf("crash@%d: snapshot is neither old nor new (%d bytes)", cut, len(got))
		}
		if _, lerr := notary.Load(bytes.NewReader(got)); lerr != nil {
			t.Fatalf("crash@%d: surviving snapshot does not load: %v", cut, lerr)
		}
	}
}
