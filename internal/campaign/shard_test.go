package campaign

import (
	"context"
	"testing"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/collect"
	"tangledmass/internal/mitm"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/population"
	"tangledmass/internal/resilient"
	"tangledmass/internal/tlsnet"
)

// TestCampaignAgainstShardedNotary runs the full pipeline — world →
// sessions through the proxy → collector → notary submission — once per
// shard count, with the campaign's notary living behind a sharded
// notaryshard cluster. The cluster must be transparent: every shard count
// ends with the same session total and the same unique-certificate count
// as the unsharded baseline.
func TestCampaignAgainstShardedNotary(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	run := func(t *testing.T, shards int) (int64, int) {
		u := cauniverse.Default()
		pop, err := population.Generate(population.Config{Seed: 3, Universe: u, SessionScale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		world, err := tlsnet.NewWorld(tlsnet.Config{Seed: 3, Universe: u, NumLeaves: 10})
		if err != nil {
			t.Fatal(err)
		}
		sites, err := tlsnet.NewSites(world)
		if err != nil {
			t.Fatal(err)
		}
		origin, err := tlsnet.ServeSites(sites)
		if err != nil {
			t.Fatal(err)
		}
		defer origin.Close()
		proxy, err := mitm.NewProxy(u.InterceptionRoot().Issued, u.Generator(),
			tlsnet.DirectDialer{Server: origin}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
		if err != nil {
			t.Fatal(err)
		}
		collector, err := collect.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer collector.Close()

		cluster, err := notaryshard.New(certgen.Epoch, shards)
		if err != nil {
			t.Fatal(err)
		}
		nsrv, err := notarynet.NewServer(cluster, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer nsrv.Close()

		_, err = Run(context.Background(), pop, origin, collector.Addr(),
			WithNotary(nsrv.Addr()),
			WithProxy(proxy),
			WithTargets([]tlsnet.HostPort{
				{Host: "gmail.com", Port: 443},
				{Host: "www.google.com", Port: 443},
			}),
			WithConcurrency(8),
			WithValidationTime(certgen.Epoch),
			WithProbeTimeout(2*time.Second),
			WithSubmitRetry(resilient.NewRetrier(resilient.Policy{
				MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
			}, 0)),
		)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.Sessions(), cluster.NumUnique()
	}

	baseSessions, baseUnique := run(t, 1)
	if baseSessions == 0 {
		t.Fatal("baseline campaign submitted no observations to the notary")
	}
	for _, shards := range []int{3, 5} {
		sessions, unique := run(t, shards)
		if sessions != baseSessions || unique != baseUnique {
			t.Fatalf("shards=%d: notary holds %d sessions/%d unique, unsharded baseline %d/%d",
				shards, sessions, unique, baseSessions, baseUnique)
		}
	}
}
