package notary

import (
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/rootstore"
)

// DB is the crash-recoverable persistence layer around a Notary: an
// append-only write-ahead journal of observations plus periodic
// checksummed snapshots, every byte of I/O routed through a faultfs.FS so
// the fault injector and the crashpoint sweep can drive it.
//
// The durability contract: an observation is acknowledged (Append
// returns nil) only after its journal records are fsynced. Recovery loads
// the newest valid snapshot, replays the journal in log order truncating
// an unchecksummable tail, and therefore always reconstructs an exact
// prefix of the submitted observation sequence that includes every
// acknowledged observation — nothing acknowledged is lost, nothing
// phantom appears. The crashpoint sweep in crash_test.go proves this for
// a crash after every write, fsync and rename boundary.
//
// On-disk layout, one generation live at a time:
//
//	snap-<gen>.v3   checksummed snapshot (persist.go's v3 envelope)
//	wal-<gen>.log   journal of everything observed since that snapshot
//
// A checkpoint writes snap-<gen+1> (write temp, fsync, rename, fsync
// dir), creates an empty wal-<gen+1> (header fsynced), and only then
// removes generation <gen>. A crash anywhere in that protocol leaves at
// least one complete generation on disk; recovery prefers the newest
// loadable one and deletes the rest.
type DB struct {
	n    *Notary
	fsys faultfs.FS
	dir  string

	mu     sync.Mutex
	gen    uint64
	w      *walWriter
	failed bool // a group commit failed: journal tail unknown, appends fenced
	closed bool
}

// ErrJournalFailed fences appends after a failed group commit: the
// journal's tail is in an unknown state, so nothing further may be
// acknowledged against it. A successful Checkpoint starts a fresh journal
// generation and lifts the fence.
var ErrJournalFailed = errors.New("notary: journal write failed; checkpoint required before further appends")

// errClosed rejects operations on a closed DB.
var errClosed = errors.New("notary: database is closed")

func snapName(gen uint64) string { return fmt.Sprintf("snap-%d.v3", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%d.log", gen) }

// parseGen extracts the generation from a data-dir file name, reporting
// whether the name is a snapshot, a journal, or neither.
func parseGen(name string) (gen uint64, isSnap, isWAL bool) {
	if s, ok := strings.CutPrefix(name, "snap-"); ok {
		if s, ok := strings.CutSuffix(s, ".v3"); ok {
			if g, err := strconv.ParseUint(s, 10, 64); err == nil {
				return g, true, false
			}
		}
	}
	if s, ok := strings.CutPrefix(name, "wal-"); ok {
		if s, ok := strings.CutSuffix(s, ".log"); ok {
			if g, err := strconv.ParseUint(s, 10, 64); err == nil {
				return g, false, true
			}
		}
	}
	return 0, false, false
}

// Open recovers (or initializes) a durable notary database in dir. When
// no usable snapshot exists the database starts empty with reference time
// at; otherwise the snapshot's reference time wins. Recovery replays the
// journal onto the snapshot, truncates any torn tail at the first bad
// checksum, and immediately checkpoints into a fresh generation, so a
// recovered directory is always exactly one snapshot plus one journal.
// opts configure the underlying Notary (WithCorpus, WithObserver,
// WithChainCache).
func Open(fsys faultfs.FS, dir string, at time.Time, opts ...Option) (*DB, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("notary: creating data dir %s: %w", dir, err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("notary: reading data dir %s: %w", dir, err)
	}
	var snapGens, walGens []uint64
	for _, name := range names {
		if g, isSnap, isWAL := parseGen(name); isSnap {
			snapGens = append(snapGens, g)
		} else if isWAL {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	// Load the newest snapshot that passes its checksum; a torn newer one
	// (crash mid-checkpoint) falls back to its predecessor. The checkpoint
	// protocol keeps at least one loadable snapshot on disk whenever any
	// snapshot name is durable, so "snapshots present, none loadable" is
	// media corruption, not a crash — refuse to boot over it rather than
	// silently serving an empty database.
	var n *Notary
	var gen uint64
	var loadErrs []string
	for _, g := range snapGens {
		loaded, lerr := loadFS(fsys, faultfs.Join(dir, snapName(g)), opts...)
		if lerr != nil {
			loadErrs = append(loadErrs, lerr.Error())
			continue
		}
		n, gen = loaded, g
		break
	}
	if n == nil && len(snapGens) > 0 {
		return nil, fmt.Errorf("notary: %d snapshot(s) in %s, none loadable (run `tangled fsck`): %s",
			len(snapGens), dir, strings.Join(loadErrs, "; "))
	}
	if n == nil {
		n = New(at, opts...)
		for _, g := range walGens {
			if g > gen {
				gen = g
			}
		}
	}

	// Replay the journal of the recovered generation. A missing journal
	// means the crash hit between snapshot publication and journal
	// creation — the snapshot alone is complete. A torn tail is the
	// normal signature of a crash mid-group-commit: everything before it
	// replays, nothing after it was ever acknowledged.
	walPath := faultfs.Join(dir, walName(gen))
	hasWAL := false
	for _, g := range walGens {
		if g == gen {
			hasWAL = true
		}
	}
	if hasWAL {
		applied, tornAt, _, rerr := replayWAL(fsys, walPath, n)
		if rerr != nil {
			return nil, rerr
		}
		n.observer.Counter(KeyRecoverReplayed).Add(int64(applied))
		if tornAt >= 0 {
			n.observer.Counter(KeyRecoverTruncated).Inc()
		}
	}

	db := &DB{n: n, fsys: fsys, dir: dir, gen: gen}
	// Boot checkpoint: fold the replayed journal into a fresh generation.
	// This is what "truncates" the torn tail — the old journal is replaced
	// wholesale — and it leaves the directory in the canonical
	// one-snapshot-one-journal state no matter what the crash left behind.
	if err := db.checkpointLocked(); err != nil {
		return nil, err
	}
	return db, nil
}

// Notary returns the in-memory database the DB persists. Callers may read
// and Validate through it; writes must go through the DB so they are
// journaled.
func (db *DB) Notary() *Notary { return db.n }

// Append journals a batch of observations with one group-commit fsync,
// then applies them to the in-memory database. It returns only after the
// records are durable: a nil error is the acknowledgment the crashpoint
// sweep holds recovery to.
func (db *DB) Append(batch []Observation) error {
	if len(batch) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.failed {
		return ErrJournalFailed
	}
	for _, o := range batch {
		if len(o.Chain) == 0 {
			continue
		}
		db.w.addObs(db.n.c, o, db.n.c.InternChain(o.Chain))
	}
	if err := db.commitLocked(); err != nil {
		return err
	}
	db.n.ObserveAll(batch)
	return nil
}

// ObserveCA journals and applies one CA sighting (Notary.ObserveCA).
func (db *DB) ObserveCA(cert *x509.Certificate, port int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.failed {
		return ErrJournalFailed
	}
	db.w.addCA(db.n.c, db.n.c.InternCert(cert), port)
	if err := db.commitLocked(); err != nil {
		return err
	}
	db.n.ObserveCA(cert, port)
	return nil
}

// ImportStore journals and applies a root-store import
// (Notary.ImportStore).
func (db *DB) ImportStore(s *rootstore.Store) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.failed {
		return ErrJournalFailed
	}
	refs := s.Refs()
	if s.Corpus() != db.n.c {
		refs = db.n.c.InternChain(s.Certificates())
	}
	for _, ref := range refs {
		db.w.addImport(db.n.c, ref)
	}
	if err := db.commitLocked(); err != nil {
		return err
	}
	db.n.ImportStore(s)
	return nil
}

// commitLocked flushes the journal writer's pending records and accounts
// for them. Caller holds db.mu. On error the journal is fenced until the
// next successful checkpoint.
func (db *DB) commitLocked() error {
	recs, bytes, err := db.w.commit()
	if err != nil {
		db.failed = true
		return err
	}
	db.n.observer.Counter(KeyWALAppends).Add(int64(recs))
	db.n.observer.Counter(KeyWALBytes).Add(int64(bytes))
	db.n.observer.Counter(KeyWALFsyncs).Inc()
	return nil
}

// Checkpoint writes the current state as a fresh snapshot generation and
// truncates the journal (by starting an empty one). It also lifts the
// append fence after a journal failure: the snapshot captures exactly the
// acknowledged state, and the fresh journal has no unknown tail.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	next := db.gen + 1
	if err := db.n.saveFS(db.fsys, db.dir, snapName(next)); err != nil {
		db.n.observer.Counter(KeyCheckpointFailures).Inc()
		return err
	}
	w, err := createWAL(db.fsys, db.dir, walName(next))
	if err != nil {
		// The new snapshot is durable and self-sufficient; recovery from
		// it replays nothing. The old journal (if any) stays live for this
		// process.
		db.n.observer.Counter(KeyCheckpointFailures).Inc()
		return err
	}
	if db.w != nil {
		_ = db.w.close()
	}
	db.w = w
	db.gen = next
	db.failed = false

	// Retire every other generation and stray temp file. Best-effort: a
	// leftover is garbage-collected by the next recovery, never read.
	if names, err := db.fsys.ReadDir(db.dir); err == nil {
		for _, name := range names {
			g, isSnap, isWAL := parseGen(name)
			if (isSnap || isWAL) && g != next {
				_ = db.fsys.Remove(faultfs.Join(db.dir, name))
			}
			if strings.HasSuffix(name, ".tmp") {
				_ = db.fsys.Remove(faultfs.Join(db.dir, name))
			}
		}
		_ = db.fsys.SyncDir(db.dir)
	}
	db.n.observer.Counter(KeyCheckpointCount).Inc()
	return nil
}

// Close checkpoints the final state and releases the journal. The DB is
// unusable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	err := db.checkpointLocked()
	if db.w != nil {
		if cerr := db.w.close(); err == nil {
			err = cerr
		}
	}
	db.closed = true
	return err
}

// FsckReport is the result of an offline integrity check of a notary data
// directory.
type FsckReport struct {
	// Dir is the checked directory.
	Dir string
	// Snapshot is the newest valid snapshot's file name ("" when none).
	Snapshot string
	// Entries and Sessions summarize the valid snapshot.
	Entries  int
	Sessions int64
	// Journal is the matching journal's file name ("" when missing).
	Journal string
	// Records is the count of valid journal records.
	Records int
	// Issues lists every integrity problem found: checksum-failing
	// snapshots, torn journal tails, orphaned generations, stray temp
	// files, no generation at all. Empty means the directory is exactly
	// one intact generation.
	Issues []string
}

// Healthy reports whether the directory passed every check.
func (r *FsckReport) Healthy() bool { return len(r.Issues) == 0 }

// String renders the report in the fixed form `tangled fsck` prints.
func (r *FsckReport) String() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("fsck %s\n", r.Dir))
	if r.Snapshot == "" {
		b.WriteString("snapshot: none\n")
	} else {
		b.WriteString(fmt.Sprintf("snapshot: %s ok (%d entries, %d sessions)\n", r.Snapshot, r.Entries, r.Sessions))
	}
	if r.Journal == "" {
		b.WriteString("journal:  none\n")
	} else {
		b.WriteString(fmt.Sprintf("journal:  %s ok (%d records)\n", r.Journal, r.Records))
	}
	for _, issue := range r.Issues {
		b.WriteString(fmt.Sprintf("issue:    %s\n", issue))
	}
	if r.Healthy() {
		b.WriteString("clean\n")
	}
	return b.String()
}

// Fsck verifies a notary data directory offline: every snapshot's
// checksum envelope, every journal's header and per-record CRCs, and the
// one-live-generation layout invariant. It never modifies the directory.
func Fsck(fsys faultfs.FS, dir string) (*FsckReport, error) {
	r := &FsckReport{Dir: dir}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("notary: reading data dir %s: %w", dir, err)
	}
	type genFiles struct{ snap, wal bool }
	gens := map[uint64]*genFiles{}
	at := func(g uint64) *genFiles {
		if gens[g] == nil {
			gens[g] = &genFiles{}
		}
		return gens[g]
	}
	for _, name := range names {
		g, isSnap, isWAL := parseGen(name)
		switch {
		case isSnap:
			at(g).snap = true
		case isWAL:
			at(g).wal = true
		case strings.HasSuffix(name, ".tmp"):
			r.Issues = append(r.Issues, fmt.Sprintf("stray temp file %s (interrupted checkpoint)", name))
		default:
			r.Issues = append(r.Issues, fmt.Sprintf("unrecognized file %s", name))
		}
	}
	if len(gens) == 0 {
		r.Issues = append(r.Issues, "no snapshot or journal: not a notary data directory")
	}
	var ordered []uint64
	for g := range gens {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] > ordered[j] })

	// The corpus used for verification is throwaway: fsck must not pollute
	// the shared process corpus with whatever the directory holds.
	verifyOpts := []Option{WithCorpus(corpusForFsck())}
	best := uint64(0)
	haveBest := false
	for _, g := range ordered {
		f := gens[g]
		if f.snap {
			n, lerr := loadFS(fsys, faultfs.Join(dir, snapName(g)), verifyOpts...)
			if lerr != nil {
				r.Issues = append(r.Issues, fmt.Sprintf("%s: %v", snapName(g), lerr))
			} else if !haveBest {
				best, haveBest = g, true
				r.Snapshot = snapName(g)
				r.Entries = n.NumUnique()
				r.Sessions = n.Sessions()
			} else {
				r.Issues = append(r.Issues, fmt.Sprintf("%s: superseded generation not yet removed", snapName(g)))
			}
		}
	}
	for _, g := range ordered {
		f := gens[g]
		if !f.wal {
			continue
		}
		path := faultfs.Join(dir, walName(g))
		fh, oerr := fsys.Open(path)
		if oerr != nil {
			r.Issues = append(r.Issues, fmt.Sprintf("%s: %v", walName(g), oerr))
			continue
		}
		data, rerr := readAllClose(fh)
		if rerr != nil {
			r.Issues = append(r.Issues, fmt.Sprintf("%s: %v", walName(g), rerr))
			continue
		}
		recs, tornAt, tornWhy := walScan(data)
		current := haveBest && g == best || !haveBest && g == maxGen(ordered)
		if current {
			r.Journal = walName(g)
			r.Records = len(recs)
		} else {
			r.Issues = append(r.Issues, fmt.Sprintf("%s: superseded generation not yet removed", walName(g)))
		}
		if tornAt >= 0 {
			r.Issues = append(r.Issues, fmt.Sprintf("%s: torn tail at byte %d (%s); %d records intact", walName(g), tornAt, tornWhy, len(recs)))
		}
	}
	if haveBest && r.Journal == "" {
		r.Issues = append(r.Issues, fmt.Sprintf("%s has no journal (crash between snapshot and journal creation)", r.Snapshot))
	}
	return r, nil
}

func maxGen(ordered []uint64) uint64 {
	if len(ordered) == 0 {
		return 0
	}
	return ordered[0]
}

func readAllClose(f faultfs.File) ([]byte, error) {
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return nil, err
	}
	return data, cerr
}

// corpusForFsck returns an isolated intern table for offline verification.
func corpusForFsck() *corpus.Corpus { return corpus.New() }
