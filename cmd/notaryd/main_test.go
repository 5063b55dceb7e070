package main

import (
	"bytes"
	"context"
	"crypto/x509"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
)

// lifecycleChains builds a few observation chains for daemon tests.
func lifecycleChains(t *testing.T, n int) [][]*x509.Certificate {
	t.Helper()
	g := certgen.NewGenerator(90)
	root, err := g.SelfSignedCA("Daemon Root")
	if err != nil {
		t.Fatal(err)
	}
	chains := make([][]*x509.Certificate, n)
	for i := range chains {
		leaf, err := g.Leaf(root, fmt.Sprintf("daemon%d.example.com", i))
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = []*x509.Certificate{leaf.Cert, root.Cert}
	}
	return chains
}

func bootTestDaemon(t *testing.T, dir string, shards int) *daemon {
	t.Helper()
	return boot2(t, config{
		addr:       "127.0.0.1:0",
		dataDir:    dir,
		checkpoint: 50 * time.Millisecond,
		prefeed:    0,
		shards:     shards,
	})
}

// TestDaemonLifecycle: boot with a data dir, ingest over the wire, drain
// on shutdown, reboot, and recover everything — then prove the restart is
// byte-exact by comparing canonical snapshots of the merged view, at the
// default width and at three shards.
func TestDaemonLifecycle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testLifecycle(t, shards) })
	}
}

func testLifecycle(t *testing.T, shards int) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	chains := lifecycleChains(t, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d := bootTestDaemon(t, dir, shards)
	client, err := notarynet.NewClient(ctx, d.srv.Addr(), notarynet.WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range chains[:3] {
		if err := client.Observe(ctx, chain, 443); err != nil {
			t.Fatal(err)
		}
	}
	var batch []notarynet.ChainObservation
	for _, chain := range chains[3:] {
		batch = append(batch, notarynet.ChainObservation{Chain: chain, Port: 993})
	}
	if err := client.ObserveBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := client.ObserveCA(ctx, chains[0][1], 8883); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != int64(len(chains))+1 {
		t.Fatalf("sessions = %d, want %d", stats.Sessions, len(chains)+1)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := d.cluster.Merged().Save(&before); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// The shutdown checkpoint must leave every shard clean.
	var fsck bytes.Buffer
	if err := notaryshard.FsckDir(faultfs.Disk, dir, &fsck); err != nil {
		t.Fatalf("post-shutdown fsck: %v\n%s", err, fsck.String())
	}
	if got := strings.Count(fsck.String(), "clean\n"); got != shards {
		t.Fatalf("fsck printed %d clean reports, want one per shard (%d):\n%s", got, shards, fsck.String())
	}

	// A narrower reboot would hide shards; it must be refused.
	if shards > 1 {
		if _, err := boot(config{addr: "127.0.0.1:0", dataDir: dir, shards: 1}); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("holds %d shards", shards)) {
			t.Fatalf("narrower reboot: err = %v, want a refusal naming %d shards", err, shards)
		}
	}

	// Reboot: recovery must reconstruct the exact database.
	d2 := bootTestDaemon(t, dir, shards)
	defer d2.Close()
	var after bytes.Buffer
	if err := d2.cluster.Merged().Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("restart changed the database bytes")
	}
	if got := d2.cluster.Sessions(); got != int64(len(chains))+1 {
		t.Fatalf("recovered sessions = %d, want %d", got, len(chains)+1)
	}
}

// TestDaemonRefusesSingleNotaryLayout: a data dir holding a generation at
// its top level (the single-notary layout) must not boot an empty cluster
// beside it; the error says where to move the files.
func TestDaemonRefusesSingleNotaryLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	db, err := notary.Open(faultfs.Disk, dir, certgen.Epoch, notary.WithCorpus(corpus.New()))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = boot(config{addr: "127.0.0.1:0", dataDir: dir, shards: 1, prefeed: 60})
	if err == nil || !strings.Contains(err.Error(), "move its snap-* and wal-* files into "+filepath.Join(dir, "shard-000")) {
		t.Fatalf("boot over a single-notary layout: err = %v, want the move instruction", err)
	}
}

// TestDaemonRecoversWithoutGracefulShutdown kills the daemon process state
// without Close — the journal alone must carry the acknowledged
// observations into the next boot.
func TestDaemonRecoversWithoutGracefulShutdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	chains := lifecycleChains(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d := boot2(t, config{addr: "127.0.0.1:0", dataDir: dir, prefeed: 0, shards: 1})
	client, err := notarynet.NewClient(ctx, d.srv.Addr(), notarynet.WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range chains {
		if err := client.Observe(ctx, chain, 993); err != nil {
			t.Fatal(err)
		}
	}
	_ = client.Close()
	// Simulated crash: tear down the listener so the port frees, but skip
	// the final checkpoint entirely.
	_ = d.srv.Close()

	d2 := bootTestDaemon(t, dir, 1)
	defer d2.Close()
	if got := d2.cluster.Sessions(); got != int64(len(chains)) {
		t.Fatalf("recovered sessions = %d, want %d (journal replay)", got, len(chains))
	}
	if !d2.cluster.HasRecord(chains[0][0]) {
		t.Fatal("acknowledged leaf missing after crash recovery")
	}
}

func boot2(t *testing.T, cfg config) *daemon {
	t.Helper()
	d, err := boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDaemonPrefeedOnlyWhenEmpty: a recovered non-empty database must not
// be prefed again.
func TestDaemonPrefeedOnlyWhenEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	d := boot2(t, config{addr: "127.0.0.1:0", dataDir: dir, prefeed: 60, seed: 3, shards: 1})
	fed := d.cluster.Sessions()
	if fed == 0 {
		t.Fatal("prefeed produced no sessions")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := boot2(t, config{addr: "127.0.0.1:0", dataDir: dir, prefeed: 60, seed: 3, shards: 1})
	defer d2.Close()
	if got := d2.cluster.Sessions(); got != fed {
		t.Fatalf("sessions after reboot = %d, want %d (no double prefeed)", got, fed)
	}
}

// TestDaemonPeriodicCheckpoint: with a short interval, checkpoints must
// keep completing without any writes — the checkpoint loop is alive.
func TestDaemonPeriodicCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	d := bootTestDaemon(t, dir, 1)
	defer d.Close()
	checkpoints := func() int64 { return d.cluster.Snapshot().Counters[notary.KeyCheckpointCount] }
	start := checkpoints()
	deadline := time.Now().Add(10 * time.Second)
	for checkpoints() == start {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint within 10s at a 50ms interval")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonInMemoryMode: without -data the daemon serves the same
// protocol and journals nothing.
func TestDaemonInMemoryMode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := boot2(t, config{addr: "127.0.0.1:0", prefeed: 0, shards: 1})
	defer d.Close()
	client, err := notarynet.NewClient(ctx, d.srv.Addr(), notarynet.WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	chains := lifecycleChains(t, 1)
	if err := client.Observe(ctx, chains[0], 443); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", stats.Sessions)
	}
	if fsyncs := d.cluster.Snapshot().Counters[notary.KeyWALFsyncs]; fsyncs != 0 {
		t.Fatalf("in-memory mode journaled: %d WAL fsyncs", fsyncs)
	}
}
