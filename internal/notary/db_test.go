package notary_test

import (
	"bytes"
	"crypto/x509"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
)

// dbChains builds a small deterministic pool of observation chains.
func dbChains(t *testing.T, seed int64, n int) [][]*x509.Certificate {
	t.Helper()
	g := certgen.NewGenerator(seed)
	root, err := g.SelfSignedCA(fmt.Sprintf("DB Root %d", seed))
	if err != nil {
		t.Fatal(err)
	}
	chains := make([][]*x509.Certificate, n)
	for i := range chains {
		leaf, err := g.Leaf(root, fmt.Sprintf("db%d-%d.example.com", seed, i))
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = []*x509.Certificate{leaf.Cert, root.Cert}
	}
	return chains
}

// dbObs turns chains into an observation stream of length n, cycling ports.
func dbObs(chains [][]*x509.Certificate, n int) []notary.Observation {
	out := make([]notary.Observation, n)
	ports := []int{443, 993, 8883}
	for i := range out {
		out[i] = notary.Observation{
			Chain:  chains[i%len(chains)],
			Port:   ports[i%len(ports)],
			SeenAt: certgen.Epoch.Add(time.Duration(i) * time.Hour),
		}
	}
	return out
}

func saveBytes(t *testing.T, n *notary.Notary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectedNotary replays a straight-line in-memory ingest of obs.
func expectedNotary(c *corpus.Corpus, obsSeq []notary.Observation) *notary.Notary {
	n := notary.New(certgen.Epoch, notary.WithCorpus(c))
	n.ObserveAll(obsSeq)
	return n
}

func TestDBOpenFreshLayout(t *testing.T) {
	mem := faultfs.NewMem(1)
	db, err := notary.Open(mem, "data", certgen.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if s := db.Notary().Sessions(); s != 0 {
		t.Errorf("fresh sessions = %d, want 0", s)
	}
	names, err := mem.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"snap-1.v3", "wal-1.log"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("layout = %v, want %v", names, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(dbObs(dbChains(t, 70, 2), 1)); err == nil {
		t.Error("append on closed DB should fail")
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("checkpoint on closed DB should fail")
	}
}

// TestDBAppendRebootRecover models power loss with no graceful shutdown:
// everything acknowledged must be reconstructed from snapshot + journal
// replay alone, and the recovered database must be byte-identical to a
// straight-line ingest of the same observations.
func TestDBAppendRebootRecover(t *testing.T) {
	c := corpus.New()
	chains := dbChains(t, 71, 8)
	stream := dbObs(chains, 90)

	mem := faultfs.NewMem(1)
	ob := obs.New()
	db, err := notary.Open(mem, "data", certgen.Epoch,
		notary.WithCorpus(c), notary.WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stream); i += 30 {
		if err := db.Append(stream[i : i+30]); err != nil {
			t.Fatal(err)
		}
	}
	if got := ob.Counter(notary.KeyWALFsyncs).Value(); got != 3 {
		t.Errorf("wal fsyncs = %d, want 3 (one group commit per batch)", got)
	}
	if ob.Counter(notary.KeyWALAppends).Value() == 0 || ob.Counter(notary.KeyWALBytes).Value() == 0 {
		t.Error("journal append counters should be non-zero")
	}
	// Power loss: no Close, no final checkpoint.
	mem.Reboot()

	ob2 := obs.New()
	rdb, err := notary.Open(mem, "data", certgen.Epoch,
		notary.WithCorpus(c), notary.WithObserver(ob2))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rdb.Close()
	if got := rdb.Notary().Sessions(); got != int64(len(stream)) {
		t.Fatalf("recovered sessions = %d, want %d", got, len(stream))
	}
	if got := ob2.Counter(notary.KeyRecoverReplayed).Value(); got != int64(len(stream)) {
		t.Errorf("replayed records = %d, want %d", got, len(stream))
	}
	if got, want := saveBytes(t, rdb.Notary()), saveBytes(t, expectedNotary(c, stream)); !bytes.Equal(got, want) {
		t.Error("recovered database differs from straight-line ingest")
	}
}

// TestDBCloseReopenEquivalence is the graceful path: shutdown checkpoints,
// reopen recovers, and the round trip preserves the database byte for byte.
func TestDBCloseReopenEquivalence(t *testing.T) {
	c := corpus.New()
	stream := dbObs(dbChains(t, 72, 5), 60)
	mem := faultfs.NewMem(2)
	db, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(stream); err != nil {
		t.Fatal(err)
	}
	before := saveBytes(t, db.Notary())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if !bytes.Equal(before, saveBytes(t, rdb.Notary())) {
		t.Error("restart changed the database bytes")
	}
}

func TestDBCheckpointRotation(t *testing.T) {
	mem := faultfs.NewMem(3)
	db, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(corpus.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Append(dbObs(dbChains(t, 73, 3), 10)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	names, err := mem.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"snap-2.v3", "wal-2.log"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("layout after checkpoint = %v, want %v (old generation retired)", names, want)
	}
}

// flakyFS fails file writes on demand — the targeted journal-failure fault
// the fence test needs (the seeded Injector is probabilistic by design).
type flakyFS struct {
	faultfs.FS
	failWrites bool
}

type flakyFile struct {
	faultfs.File
	fs *flakyFS
}

func (f *flakyFS) Create(path string) (faultfs.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.fs.failWrites {
		return 0, errors.New("flaky: injected write failure")
	}
	return f.File.Write(p)
}

// TestDBJournalFailureFence: after a failed group commit the journal tail
// is unknown, so appends must be fenced with ErrJournalFailed until a
// checkpoint starts a fresh journal. Nothing from the failed batch may
// survive, in memory or on disk.
func TestDBJournalFailureFence(t *testing.T) {
	c := corpus.New()
	stream := dbObs(dbChains(t, 74, 4), 30)
	fsys := &flakyFS{FS: faultfs.NewMem(4)}
	db, err := notary.Open(fsys, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(stream[:10]); err != nil {
		t.Fatal(err)
	}

	fsys.failWrites = true
	if err := db.Append(stream[10:20]); err == nil {
		t.Fatal("append during write failure should error")
	} else if errors.Is(err, notary.ErrJournalFailed) {
		t.Fatal("first failure should surface the I/O error, not the fence")
	}
	fsys.failWrites = false
	if err := db.Append(stream[10:20]); !errors.Is(err, notary.ErrJournalFailed) {
		t.Fatalf("append after failed commit = %v, want ErrJournalFailed", err)
	}
	if got := db.Notary().Sessions(); got != 10 {
		t.Fatalf("sessions after failed batch = %d, want 10 (batch must not apply)", got)
	}

	// A checkpoint captures exactly the acknowledged state and lifts the fence.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(stream[10:20]); err != nil {
		t.Fatalf("append after checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb, err := notary.Open(fsys, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got, want := saveBytes(t, rdb.Notary()), saveBytes(t, expectedNotary(c, stream[:20])); !bytes.Equal(got, want) {
		t.Error("recovered database should hold exactly the acknowledged batches")
	}
}

// TestDBCARecordsAndImportsRecovered covers the walRecCA and walRecImport
// replay paths: CA sightings and store imports journaled through the DB
// must survive an ungraceful reboot.
func TestDBCARecordsAndImportsRecovered(t *testing.T) {
	c := corpus.New()
	g := certgen.NewGenerator(75)
	ca, err := g.SelfSignedCA("Journal CA")
	if err != nil {
		t.Fatal(err)
	}
	imported, err := g.SelfSignedCA("Imported Root")
	if err != nil {
		t.Fatal(err)
	}
	store := rootstore.NewIn("journal-store", c)
	store.Add(imported.Cert)

	mem := faultfs.NewMem(5)
	db, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ObserveCA(ca.Cert, 8883); err != nil {
		t.Fatal(err)
	}
	if err := db.ImportStore(store); err != nil {
		t.Fatal(err)
	}
	mem.Reboot() // no Close: recovery must come from the journal

	rdb, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	n := rdb.Notary()
	e := n.Lookup(ca.Cert)
	if e == nil || e.Sessions != 1 || e.Ports[8883] != 1 || e.SeenAsLeaf {
		t.Errorf("CA entry = %+v", e)
	}
	ie := n.Lookup(imported.Cert)
	if ie == nil || !ie.FromStore || ie.Sessions != 0 {
		t.Errorf("imported entry = %+v", ie)
	}
	if n.Sessions() != 1 {
		t.Errorf("sessions = %d, want 1 (import is not traffic)", n.Sessions())
	}
}

// writeRaw writes bytes to path through fsys with full durability.
func writeRaw(t *testing.T, fsys faultfs.FS, dir, base string, data []byte) {
	t.Helper()
	if err := fsys.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create(faultfs.Join(dir, base))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}

// TestDBSnapshotFallback: a checksum-failing newer snapshot (the signature
// of a crash mid-checkpoint) must fall back to the older valid generation,
// not error and not lose data.
func TestDBSnapshotFallback(t *testing.T) {
	c := corpus.New()
	stream := dbObs(dbChains(t, 76, 4), 25)
	src := expectedNotary(c, stream)

	mem := faultfs.NewMem(6)
	writeRaw(t, mem, "data", "snap-3.v3", saveBytes(t, src))
	writeRaw(t, mem, "data", "snap-4.v3", []byte("TANGLED-NOTARY-SNAP3\ngarbage that fails the checksum"))

	db, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatalf("fallback open: %v", err)
	}
	defer db.Close()
	if got := db.Notary().Sessions(); got != int64(len(stream)) {
		t.Errorf("sessions = %d, want %d", got, len(stream))
	}
	if !bytes.Equal(saveBytes(t, db.Notary()), saveBytes(t, src)) {
		t.Error("fallback lost data")
	}
}

// TestDBOpenRejectsUnloadableSnapshots: when snapshots exist but none
// loads, Open must refuse rather than boot an empty database over
// corrupted state.
func TestDBOpenRejectsUnloadableSnapshots(t *testing.T) {
	mem := faultfs.NewMem(7)
	writeRaw(t, mem, "data", "snap-2.v3", []byte("TANGLED-NOTARY-SNAP3\nnot a snapshot"))
	_, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(corpus.New()))
	if err == nil {
		t.Fatal("open over only-corrupt snapshots should fail")
	}
	if !strings.Contains(err.Error(), "none loadable") {
		t.Errorf("error = %v, want a none-loadable diagnosis", err)
	}
}

func TestDBFsck(t *testing.T) {
	c := corpus.New()
	mem := faultfs.NewMem(8)
	db, err := notary.Open(mem, "data", certgen.Epoch, notary.WithCorpus(c))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(dbObs(dbChains(t, 77, 3), 12)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := notary.Fsck(mem, "data")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Healthy() {
		t.Fatalf("clean directory reported issues: %v", r.Issues)
	}
	if r.Snapshot == "" || r.Journal == "" || r.Sessions != 12 {
		t.Errorf("report = %+v", r)
	}
	if !strings.Contains(r.String(), "clean") {
		t.Errorf("healthy report should say clean:\n%s", r.String())
	}

	// Damage the directory in every way fsck flags: a corrupt extra
	// snapshot, a stray temp file, and a torn journal tail.
	writeRaw(t, mem, "data", "snap-99.v3", []byte("TANGLED-NOTARY-SNAP3\nbad"))
	writeRaw(t, mem, "data", "leftover.tmp", []byte("x"))
	r2, err := notary.Fsck(mem, "data")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Healthy() {
		t.Fatal("damaged directory reported healthy")
	}
	if len(r2.Issues) < 2 {
		t.Errorf("issues = %v, want corrupt snapshot + stray temp", r2.Issues)
	}
	if r2.Sessions != 12 {
		t.Errorf("fsck should still report the valid generation: %+v", r2)
	}
	for _, issue := range r2.Issues {
		if strings.Contains(issue, "snap-99") {
			return
		}
	}
	t.Errorf("no issue names the corrupt snapshot: %v", r2.Issues)
}

// TestDBFaultPlanLedgerDeterministic drives the DB through a seeded
// Injector plan — probabilistic write, fsync and rename faults — twice,
// and requires (a) acknowledged state survives exactly, and (b) the fault
// ledger is byte-identical across runs: the faultnet property, on disk.
func TestDBFaultPlanLedgerDeterministic(t *testing.T) {
	run := func() (string, int) {
		c := corpus.New()
		stream := dbObs(dbChains(t, 78, 6), 80)
		in := faultfs.New(faultfs.Plan{
			Seed:          42,
			TornWriteProb: 0.05,
			NoSpaceProb:   0.05,
			SyncErrProb:   0.05,
			RenameErrProb: 0.05,
		})
		fsys := in.FS(faultfs.NewMem(9), "db-fault-run")

		var db *notary.DB
		var err error
		for try := 0; try < 50; try++ {
			if db, err = notary.Open(fsys, "data", certgen.Epoch, notary.WithCorpus(c)); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("open never succeeded under plan: %v", err)
		}
		acked := 0
		for i := 0; i < len(stream); i += 10 {
			batch := stream[i : i+10]
			err := db.Append(batch)
			if err == nil {
				acked += len(batch)
				continue
			}
			// Fenced: checkpoint (retrying through injected faults) to
			// start a fresh journal, then retry the batch once.
			for try := 0; try < 50; try++ {
				if cerr := db.Checkpoint(); cerr == nil {
					break
				}
			}
			if err := db.Append(batch); err == nil {
				acked += len(batch)
			}
		}
		for try := 0; try < 50; try++ {
			if err := db.Close(); err == nil {
				break
			}
		}

		var rdb *notary.DB
		for try := 0; try < 50; try++ {
			if rdb, err = notary.Open(fsys, "data", certgen.Epoch, notary.WithCorpus(c)); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("reopen after fault run never succeeded: %v", err)
		}
		got := int(rdb.Notary().Sessions())
		if got < acked {
			t.Fatalf("recovered %d sessions < %d acknowledged: lost acks", got, acked)
		}
		for try := 0; try < 50; try++ {
			if err := rdb.Close(); err == nil {
				break
			}
		}
		if in.Total() == 0 {
			t.Fatal("plan injected no faults; probabilities too low to exercise anything")
		}
		return in.String(), got
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Errorf("fault runs diverged:\nrun1 (%d sessions):\n%s\nrun2 (%d sessions):\n%s", s1, l1, s2, l2)
	}
}
