package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/notaryshard"
)

func TestCmdFsck(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	db, err := notary.Open(faultfs.Disk, dir, certgen.Epoch, notary.WithCorpus(corpus.New()))
	if err != nil {
		t.Fatal(err)
	}
	g := certgen.NewGenerator(95)
	root, err := g.SelfSignedCA("Fsck CLI Root")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ObserveCA(root.Cert, 443); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	out := capture(t, func() error { return cmdFsck([]string{dir}) })
	for _, want := range []string{"snapshot:", "journal:", "clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("fsck output missing %q:\n%s", want, out)
		}
	}

	// Damage the directory: fsck must report the issue and fail.
	if err := os.WriteFile(filepath.Join(dir, "snap-99.v3"), []byte("TANGLED-NOTARY-SNAP3\nbad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdFsck([]string{dir}); err == nil {
		t.Error("fsck over a corrupt snapshot should fail")
	}

	if err := cmdFsck(nil); err == nil {
		t.Error("fsck without a directory should error")
	}
	if err := cmdFsck([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("fsck of a missing directory should error")
	}

	// A directory with nothing to check is not clean.
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cmdFsck([]string{empty}); err == nil {
		t.Error("fsck of an empty directory should fail")
	}

	// A notaryd data dir: fsck checks every shard and reports each.
	sharded := filepath.Join(t.TempDir(), "sharded")
	cl, err := notaryshard.Open(faultfs.Disk, sharded, certgen.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.ObserveCA(root.Cert, 443); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	out = capture(t, func() error { return cmdFsck([]string{sharded}) })
	for _, shard := range []string{"shard-000", "shard-001"} {
		if !strings.Contains(out, "fsck "+filepath.Join(sharded, shard)+"\n") {
			t.Errorf("fsck output missing the %s report:\n%s", shard, out)
		}
	}
	if got := strings.Count(out, "clean\n"); got != 2 {
		t.Errorf("fsck printed %d clean reports, want 2:\n%s", got, out)
	}
	snaps, err := filepath.Glob(filepath.Join(sharded, "shard-001", "snap-*.v3"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("shard-001 snapshots = %v (%v), want one", snaps, err)
	}
	if err := os.WriteFile(snaps[0], []byte("TANGLED-NOTARY-SNAP3\nbad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdFsck([]string{sharded}); err == nil {
		t.Error("fsck over a corrupt shard-001 snapshot should fail")
	}
}
