package notary

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
)

// Snapshot is the serialized form of a Notary database. The real Notary
// aggregates into a central database that outlives any one process (§4.2,
// "aggregating them into a central database"); Save/Load give the
// reproduction the same property.
//
// Version history:
//
//   - v1 stored each entry's DER inline, so a certificate recorded in many
//     snapshots (or appearing once per entry) was encoded redundantly.
//   - v2 stores one deduplicated DER table for the whole snapshot and has
//     entries reference it by index — the on-disk mirror of the in-memory
//     corpus.
//   - v3 wraps the v2 payload in a crash-evident envelope: a fixed magic
//     prefix and a SHA-256 trailer over everything before it. A torn or
//     bit-flipped snapshot fails the checksum instead of decoding into
//     silently partial state.
//
// Save writes v3 and Load reads v3 only; the bare-gob v1/v2 layouts are no
// longer accepted. Earlier v3 writers declared a per-entry DER field
// (always empty in v3); gob skips stream fields the struct lacks, so their
// snapshots still load.
type snapshot struct {
	// Version guards the format.
	Version int
	At      time.Time
	// Sessions is the observation count.
	Sessions int64
	// DER is the deduplicated certificate table: one encoding per distinct
	// certificate, ordered by SHA-1 fingerprint.
	DER     [][]byte
	Entries []snapshotEntry
}

type snapshotEntry struct {
	// Cert indexes the snapshot's DER table.
	Cert       int
	SeenAsLeaf bool
	FromStore  bool
	Sessions   int64
	FirstSeen  time.Time
	LastSeen   time.Time
	// Ports is sorted by port so identical databases serialize
	// byte-identically (gob map encoding is order-dependent).
	Ports []portCount
}

type portCount struct {
	Port  int
	Count int64
}

const snapshotVersion = 3

// snapshotMagic opens every v3 snapshot.
const snapshotMagic = "TANGLED-NOTARY-SNAP3\n"

// Save writes the database to w in the v3 checksummed format: magic
// prefix, gob payload, SHA-256 trailer over both. Entries are ordered by
// SHA-1 fingerprint, so identical databases produce byte-identical
// snapshots regardless of observation order.
func (n *Notary) Save(w io.Writer) error {
	n.mu.RLock()
	snap := snapshot{Version: snapshotVersion, At: n.at, Sessions: n.sessions}
	refs := make([]sortRef, 0, len(n.entries))
	for ref := range n.entries {
		refs = append(refs, sortRef{fp: n.c.SHA1(ref), ref: ref})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].fp < refs[j].fp })
	for i, sr := range refs {
		e := n.entries[sr.ref]
		ports := make([]portCount, 0, len(e.Ports))
		for p, c := range e.Ports {
			ports = append(ports, portCount{Port: p, Count: c})
		}
		sort.Slice(ports, func(i, j int) bool { return ports[i].Port < ports[j].Port })
		snap.DER = append(snap.DER, n.c.DER(sr.ref))
		snap.Entries = append(snap.Entries, snapshotEntry{
			Cert:       i,
			SeenAsLeaf: e.SeenAsLeaf,
			FromStore:  e.FromStore,
			Sessions:   e.Sessions,
			FirstSeen:  e.FirstSeen,
			LastSeen:   e.LastSeen,
			Ports:      ports,
		})
	}
	n.mu.RUnlock()

	var payload bytes.Buffer
	payload.WriteString(snapshotMagic)
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("notary: encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	payload.Write(sum[:])
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("notary: writing snapshot: %w", err)
	}
	return nil
}

type sortRef struct {
	fp  string
	ref corpus.Ref
}

// Load reads a database written by Save. The snapshot's reference time is
// restored with it. Input without the v3 magic prefix is rejected, and a
// snapshot that is truncated or corrupted anywhere fails the SHA-256
// check. A sealed snapshot is still rejected on any version, index,
// duplicate-entry or certificate-parse inconsistency rather than loaded
// partially. Certificates are interned through the corpus on the way in;
// opts are applied to the restored Notary (e.g. WithCorpus, WithObserver).
func Load(r io.Reader, opts ...Option) (*Notary, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("notary: reading snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return nil, fmt.Errorf("notary: not a v3 snapshot (missing magic prefix)")
	}
	if len(data) < len(snapshotMagic)+sha256.Size {
		return nil, fmt.Errorf("notary: snapshot truncated before checksum trailer (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("notary: snapshot checksum mismatch (torn or corrupted write)")
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(body[len(snapshotMagic):])).Decode(&snap); err != nil {
		return nil, fmt.Errorf("notary: decoding v3 snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("notary: v3 envelope carries version %d", snap.Version)
	}
	if snap.Sessions < 0 {
		return nil, fmt.Errorf("notary: snapshot carries negative session count %d", snap.Sessions)
	}
	n := New(snap.At, opts...)
	n.sessions = snap.Sessions
	for i, se := range snap.Entries {
		if se.Cert < 0 || se.Cert >= len(snap.DER) {
			return nil, fmt.Errorf("notary: snapshot entry references certificate %d of %d", se.Cert, len(snap.DER))
		}
		ref, err := n.c.Intern(snap.DER[se.Cert])
		if err != nil {
			return nil, fmt.Errorf("notary: snapshot certificate: %w", err)
		}
		// Save writes one entry per certificate; a second entry for the
		// same certificate (one index listed twice, or one DER stored at
		// two indices) would silently overwrite the first.
		if _, dup := n.entries[ref]; dup {
			return nil, fmt.Errorf("notary: snapshot entry %d repeats the certificate of an earlier entry", i)
		}
		e := n.entryRef(ref)
		e.SeenAsLeaf = se.SeenAsLeaf
		e.FromStore = se.FromStore
		e.Sessions = se.Sessions
		e.FirstSeen = se.FirstSeen
		e.LastSeen = se.LastSeen
		for _, pc := range se.Ports {
			e.Ports[pc.Port] = pc.Count
		}
	}
	return n, nil
}

// SaveFile writes the database to path crash-safely: write to a temporary
// name, fsync the file, rename over the final name, and fsync the
// containing directory. A crash at any point leaves either the old
// snapshot or the new one under the final name — never an empty or torn
// file.
func (n *Notary) SaveFile(path string) error {
	dir := filepath.Dir(path)
	return n.saveFS(faultfs.Disk, dir, filepath.Base(path))
}

// saveFS is SaveFile over an arbitrary filesystem — the durability layer
// routes checkpoints through it so the fault injector and crash harness
// can drive every I/O step.
func (n *Notary) saveFS(fsys faultfs.FS, dir, base string) error {
	final := faultfs.Join(dir, base)
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("notary: creating %s: %w", tmp, err)
	}
	if err := n.Save(f); err != nil {
		_ = f.Close() // best-effort cleanup: the Save error wins
		_ = fsys.Remove(tmp)
		return err
	}
	// fsync before rename: the rename must never publish a name whose
	// content is still in the page cache only.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("notary: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("notary: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("notary: renaming snapshot: %w", err)
	}
	// fsync the directory so the rename itself survives a crash.
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("notary: syncing directory %s: %w", dir, err)
	}
	return nil
}

// SaveFileIn is SaveFile over an arbitrary filesystem — the crash harness
// drives the write-fsync-rename-fsync protocol through MemFS with it.
func (n *Notary) SaveFileIn(fsys faultfs.FS, dir, base string) error {
	return n.saveFS(fsys, dir, base)
}

// LoadFile reads a database from path.
func LoadFile(path string, opts ...Option) (*Notary, error) {
	return loadFS(faultfs.Disk, path, opts...)
}

// loadFS is LoadFile over an arbitrary filesystem.
func loadFS(fsys faultfs.FS, path string, opts ...Option) (*Notary, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("notary: opening %s: %w", path, err)
	}
	defer f.Close()
	return Load(f, opts...)
}
