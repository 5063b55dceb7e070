package analysis

import (
	"encoding/json"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/population"
	"tangledmass/internal/tlsnet"
)

// shardCounts are the cluster widths the shard-sweep gate runs at: the
// degenerate single shard, a typical spread, and a prime count that never
// divides the leaf population evenly.
var shardCounts = []int{1, 4, 7}

// TestArtifactBytesIdenticalAcrossShardCounts is PR 9's determinism gate:
// for seeds 1–3, the full analysis artifact built from a sharded notary's
// merged view must be byte-identical to the one built from a single
// unsharded notary — same seed, same bytes, any shard count. Placement is
// a pure function of certificate content and the merge is a commutative
// fold over disjoint session partitions, so sharding must be invisible in
// every Table 3/4 and Figure 1–3 number.
func TestArtifactBytesIdenticalAcrossShardCounts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pop, err := population.Generate(population.Config{Seed: seed, SessionScale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		w, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, NumLeaves: 500, Universe: pop.Universe})
		if err != nil {
			t.Fatal(err)
		}
		artifact := func(ndb *notary.Notary) []byte {
			dev, man := Table2(pop, 10)
			doc := map[string]any{
				"table2_devices":  dev,
				"table2_makers":   man,
				"figure1":         Figure1(pop),
				"headlines":       ComputeHeadlines(pop),
				"per_month":       SessionsPerMonth(pop),
				"table5":          Table5(pop),
				"missing":         MissingHandsets(pop),
				"roaming":         RoamingCandidates(pop),
				"figure2":         Figure2(pop, ndb, 5),
				"trust_attr":      ComputeTrustAttribution(pop),
				"table3":          Table3(ndb, pop.Universe),
				"figure3":         ValidateCategories(ndb, Figure3Categories(pop.Universe)),
				"port_dist":       ndb.PortDistribution(),
				"unexpired":       ndb.NumUnexpired(),
				"unique_entries":  ndb.NumUnique(),
				"total_sessions":  ndb.Sessions(),
				"unique_root_ids": pop.UniqueRootIdentities(),
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}

		single := notary.New(certgen.Epoch)
		tlsnet.Feed(w, single)
		want := artifact(single)

		for _, shards := range shardCounts {
			cl, err := notaryshard.New(certgen.Epoch, shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := tlsnet.FeedTo(w, cl); err != nil {
				t.Fatalf("seed %d shards %d: feeding cluster: %v", seed, shards, err)
			}
			if got := artifact(cl.Merged()); string(got) != string(want) {
				t.Fatalf("seed %d shards %d: JSON artifact differs from unsharded bytes", seed, shards)
			}
		}
	}
}
