package notaryshard

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/tlsnet"
)

func testWorld(t *testing.T, seed int64, leaves int) *tlsnet.World {
	t.Helper()
	w, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, NumLeaves: leaves})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestShardForDeterministicAndBalanced pins the placement function: pure
// in its inputs, in range, and spreading a real leaf population without
// starving any shard.
func TestShardForDeterministicAndBalanced(t *testing.T) {
	w := testWorld(t, 1, 600)
	c := corpus.Shared()
	for _, n := range []int{1, 2, 4, 7, 16} {
		counts := make([]int, n)
		for _, leaf := range w.Leaves() {
			ref := c.InternCert(leaf.Chain[0])
			d := c.Entry(ref).Digest
			i := ShardFor(d, n)
			if i < 0 || i >= n {
				t.Fatalf("ShardFor out of range: %d of %d", i, n)
			}
			if j := ShardFor(d, n); j != i {
				t.Fatalf("ShardFor not deterministic: %d then %d", i, j)
			}
			counts[i]++
		}
		if n > 1 {
			for i, got := range counts {
				if got == 0 {
					t.Fatalf("n=%d: shard %d received no leaves: %v", n, i, counts)
				}
			}
		}
	}
}

// TestShardForMonotone pins jump hashing's defining property: growing the
// cluster from n to n+1 shards only moves keys onto the new shard, never
// between existing ones — the minimal-movement guarantee resharding
// relies on.
func TestShardForMonotone(t *testing.T) {
	w := testWorld(t, 2, 400)
	c := corpus.Shared()
	for n := 1; n < 8; n++ {
		for _, leaf := range w.Leaves() {
			ref := c.InternCert(leaf.Chain[0])
			d := c.Entry(ref).Digest
			before, after := ShardFor(d, n), ShardFor(d, n+1)
			if before != after && after != n {
				t.Fatalf("n=%d→%d: key moved between existing shards (%d→%d)", n, n+1, before, after)
			}
		}
	}
}

// TestMergedMatchesSingleNotary checks the cluster end to end against a
// single notary fed the identical stream: every top-level statistic of
// the merged view must agree exactly, at several shard counts.
func TestMergedMatchesSingleNotary(t *testing.T) {
	w := testWorld(t, 3, 500)
	single := notary.New(certgen.Epoch)
	tlsnet.Feed(w, single)

	for _, shards := range []int{1, 3, 5} {
		cl, err := New(certgen.Epoch, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := tlsnet.FeedTo(w, cl); err != nil {
			t.Fatal(err)
		}
		m := cl.Merged()
		if got, want := m.Sessions(), single.Sessions(); got != want {
			t.Fatalf("shards=%d: merged sessions %d, single %d", shards, got, want)
		}
		if got, want := cl.Sessions(), single.Sessions(); got != want {
			t.Fatalf("shards=%d: summed sessions %d, single %d", shards, got, want)
		}
		if got, want := m.NumUnique(), single.NumUnique(); got != want {
			t.Fatalf("shards=%d: merged unique %d, single %d", shards, got, want)
		}
		if got, want := m.NumUnexpired(), single.NumUnexpired(); got != want {
			t.Fatalf("shards=%d: merged unexpired %d, single %d", shards, got, want)
		}
		store := w.Universe().AOSP("4.4")
		gotRep, wantRep := cl.ValidateOne(store), single.ValidateOne(store)
		if gotRep.Validated != wantRep.Validated {
			t.Fatalf("shards=%d: merged validated %d, single %d", shards, gotRep.Validated, wantRep.Validated)
		}
		for _, leaf := range w.Leaves()[:50] {
			if cl.HasRecord(leaf.Chain[0]) != single.HasRecord(leaf.Chain[0]) {
				t.Fatalf("shards=%d: HasRecord disagrees for a leaf", shards)
			}
		}
	}
}

// TestMergedMemoization checks that the merged view is rebuilt only when
// the cluster has mutated since.
func TestMergedMemoization(t *testing.T) {
	w := testWorld(t, 4, 120)
	cl, err := New(certgen.Epoch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsnet.FeedTo(w, cl); err != nil {
		t.Fatal(err)
	}
	m1 := cl.Merged()
	if m2 := cl.Merged(); m2 != m1 {
		t.Fatal("Merged rebuilt with no intervening mutation")
	}
	leaf := w.Leaves()[0]
	if err := cl.Observe(notary.Observation{Chain: leaf.Chain, Port: leaf.Port}); err != nil {
		t.Fatal(err)
	}
	if m3 := cl.Merged(); m3 == m1 {
		t.Fatal("Merged not rebuilt after a mutation")
	}

	// A lone shard is the merged view: reads after writes never copy it.
	one, err := New(certgen.Epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsnet.FeedTo(w, one); err != nil {
		t.Fatal(err)
	}
	unique := one.NumUnique()
	if err := one.Observe(notary.Observation{Chain: leaf.Chain, Port: leaf.Port}); err != nil {
		t.Fatal(err)
	}
	if one.NumUnique() != unique || one.Merged() != one.shards[0].n {
		t.Fatal("one-shard Merged is not the shard's own notary")
	}
	if got := one.Snapshot().Counters[KeyMergeTotal]; got != 0 {
		t.Fatalf("one-shard cluster merged %d times, want 0", got)
	}
}

// TestObserveBatchPerShardIdempotency is the router's exactly-once
// contract: a batch retried under the same ID after one shard failed is
// applied only by the shards that missed it the first time.
func TestObserveBatchPerShardIdempotency(t *testing.T) {
	w := testWorld(t, 5, 300)
	cl, err := New(certgen.Epoch, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Build a batch that provably spans all three shards.
	var batch []notary.Observation
	covered := map[int]bool{}
	for _, leaf := range w.Leaves() {
		i := cl.shardIndexFor(leaf.Chain[0])
		batch = append(batch, notary.Observation{Chain: leaf.Chain, Port: leaf.Port})
		covered[i] = true
		if len(covered) == 3 && len(batch) >= 30 {
			break
		}
	}
	if len(covered) < 3 {
		t.Fatalf("leaf population covers only %d of 3 shards", len(covered))
	}

	boom := errors.New("injected shard failure")
	cl.FailNext(1, boom)
	if err := cl.ObserveBatch("batch-1", batch); !errors.Is(err, boom) {
		t.Fatalf("first attempt: got %v, want injected failure", err)
	}
	if got := cl.shards[1].n.Sessions(); got != 0 {
		t.Fatalf("failed shard applied %d sessions before the retry", got)
	}

	// The retry must complete, and every observation must land exactly
	// once per shard: total sessions equals the batch size.
	if err := cl.ObserveBatch("batch-1", batch); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got, want := cl.Sessions(), int64(len(batch)); got != want {
		t.Fatalf("after retry: %d sessions, want exactly %d (once per observation)", got, want)
	}

	// A third send of the same ID is absorbed entirely.
	if err := cl.ObserveBatch("batch-1", batch); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Sessions(), int64(len(batch)); got != want {
		t.Fatalf("duplicate resend applied again: %d sessions, want %d", got, want)
	}
}

// TestDurableClusterRecovery checks the per-shard durability composition:
// a durable cluster that loses its process (no Close, no checkpoint since
// the writes) recovers every acknowledged observation from the per-shard
// WALs, and the merged view survives intact.
func TestDurableClusterRecovery(t *testing.T) {
	w := testWorld(t, 6, 200)
	fsys := faultfs.NewMem(1)

	cl, err := Open(fsys, "data", certgen.Epoch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsnet.FeedTo(w, cl); err != nil {
		t.Fatal(err)
	}
	wantSessions := cl.Sessions()
	wantUnique := cl.NumUnique()
	// No Close: simulate the process dying with the WALs as the only
	// durable record of the post-snapshot writes.

	re, err := Open(fsys, "data", certgen.Epoch, 3)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer re.Close()
	if got := re.Sessions(); got != wantSessions {
		t.Fatalf("recovered %d sessions, want %d", got, wantSessions)
	}
	if got := re.NumUnique(); got != wantUnique {
		t.Fatalf("recovered %d unique, want %d", got, wantUnique)
	}
}

// TestDurableClusterCheckpointAndReopen does the clean-shutdown variant
// and additionally verifies each shard's directory holds an independent
// generation.
func TestDurableClusterCheckpointAndReopen(t *testing.T) {
	w := testWorld(t, 7, 150)
	fsys := faultfs.NewMem(1)

	cl, err := Open(fsys, "data", certgen.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsnet.FeedTo(w, cl); err != nil {
		t.Fatal(err)
	}
	want := cl.Sessions()
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := notary.Fsck(fsys, faultfs.Join("data", []string{"shard-000", "shard-001"}[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Healthy() {
			t.Fatalf("shard %d unhealthy after clean shutdown: %s", i, rep)
		}
	}
	re, err := Open(fsys, "data", certgen.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Sessions(); got != want {
		t.Fatalf("reopened %d sessions, want %d", got, want)
	}
}

// TestReshardOnReopen reopens a durable cluster at a different width: the
// merged view must still carry every session — placement only governs
// where new writes go, while the merge is placement-agnostic.
func TestReshardOnReopen(t *testing.T) {
	w := testWorld(t, 8, 150)
	fsys := faultfs.NewMem(1)

	cl, err := Open(fsys, "data", certgen.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsnet.FeedTo(w, cl); err != nil {
		t.Fatal(err)
	}
	want := cl.Sessions()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(fsys, "data", certgen.Epoch, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Sessions(); got != want {
		t.Fatalf("after resharding 2→5: %d sessions, want %d", got, want)
	}
	// New writes land under the new placement and merge in fine.
	leaf := w.Leaves()[0]
	if err := re.Observe(notary.Observation{Chain: leaf.Chain, Port: leaf.Port}); err != nil {
		t.Fatal(err)
	}
	if got := re.Sessions(); got != want+1 {
		t.Fatalf("post-reshard write: %d sessions, want %d", got, want+1)
	}
}

// TestOpenRefusesHiddenData: Open must not serve beside data it would
// leave unread — the shards of a wider cluster past the requested width,
// or a single-notary generation at the top level — and each refusal says
// how to reopen. Growing stays allowed (TestReshardOnReopen).
func TestOpenRefusesHiddenData(t *testing.T) {
	w := testWorld(t, 8, 150)
	for _, tc := range []struct {
		name string
		fs   func(t *testing.T) (faultfs.FS, string)
	}{
		{"memfs", func(*testing.T) (faultfs.FS, string) { return faultfs.NewMem(1), "data" }},
		{"disk", func(t *testing.T) (faultfs.FS, string) { return faultfs.Disk, filepath.Join(t.TempDir(), "data") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys, dir := tc.fs(t)
			cl, err := Open(fsys, dir, certgen.Epoch, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := tlsnet.FeedTo(w, cl); err != nil {
				t.Fatal(err)
			}
			want := cl.Sessions()
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(fsys, dir, certgen.Epoch, 2); err == nil || !strings.Contains(err.Error(), "holds 5 shards; reopen it with 5") {
				t.Fatalf("narrowing 5→2: err = %v, want a refusal naming 5 shards", err)
			}
			re, err := Open(fsys, dir, certgen.Epoch, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got := re.Sessions(); got != want {
				t.Fatalf("reopened at 5 after the refusal: %d sessions, want %d", got, want)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}

			single := faultfs.Join(dir, "single")
			db, err := notary.Open(fsys, single, certgen.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(fsys, single, certgen.Epoch, 1); err == nil ||
				!strings.Contains(err.Error(), "move its snap-* and wal-* files into "+shardDir(single, 0)) {
				t.Fatalf("single-notary layout: err = %v, want the move instruction", err)
			}
		})
	}
}

// TestClusterRejectsBadConfig covers constructor validation.
func TestClusterRejectsBadConfig(t *testing.T) {
	if _, err := New(certgen.Epoch, 0); err == nil {
		t.Fatal("New accepted 0 shards")
	}
	cl, err := New(certgen.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.ObserveAll([]notary.Observation{{}}); err == nil {
		t.Fatal("ObserveAll accepted an empty chain")
	}
}
