package tlsnet

import (
	"context"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/chain"
)

var (
	worldOnce sync.Once
	testWorld *World
	worldErr  error
)

// smallWorld caches a 3,000-leaf world across tests.
func smallWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		testWorld, worldErr = NewWorld(Config{Seed: 1, NumLeaves: 3000})
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return testWorld
}

func TestWorldShape(t *testing.T) {
	w := smallWorld(t)
	leaves := w.Leaves()
	if len(leaves) != 3000 {
		t.Fatalf("leaves = %d, want 3000", len(leaves))
	}
	internet, expired, withInter := 0, 0, 0
	byRoot := map[string]int{}
	for _, l := range leaves {
		if len(l.Chain) < 2 {
			t.Fatal("chain must include at least leaf and root")
		}
		if strings.HasPrefix(l.RootName, "Internet Private CA") {
			internet++
		}
		if l.Expired {
			expired++
		}
		if len(l.Chain) == 3 {
			withInter++
		}
		byRoot[l.RootName]++
	}
	if f := float64(internet) / 3000; f < 0.22 || f > 0.30 {
		t.Errorf("internet-only share = %.3f, want ≈0.26", f)
	}
	if f := float64(expired) / 3000; f < 0.05 || f > 0.11 {
		t.Errorf("expired share = %.3f, want ≈0.08", f)
	}
	if withInter == 0 {
		t.Error("popular roots should issue through intermediates")
	}
	// Popularity must be skewed: the most popular universe root beats the
	// median by a wide margin.
	u := w.Universe()
	top := byRoot[u.IssuingRoots()[0].Name]
	mid := byRoot[u.IssuingRoots()[90].Name]
	if top <= mid*3 {
		t.Errorf("popularity not skewed: top=%d mid=%d", top, mid)
	}
}

func TestLeafChainsVerify(t *testing.T) {
	w := smallWorld(t)
	for _, l := range w.Leaves()[:50] {
		root := l.Chain[len(l.Chain)-1]
		var inters []*x509.Certificate
		if len(l.Chain) == 3 {
			inters = append(inters, l.Chain[1])
		}
		v := chain.NewVerifier([]*x509.Certificate{root}, inters, certgen.Epoch)
		if got := v.Validates(l.Chain[0]); got != !l.Expired {
			t.Errorf("leaf %s validates=%v, expired=%v", l.Chain[0].Subject.CommonName, got, l.Expired)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Seed: 1}.withDefaults()
	if cfg.NumLeaves != 20000 || cfg.InternetShare != 0.26 || cfg.ZipfS != 1.10 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	neg := Config{Seed: 1, InternetShare: -1}.withDefaults()
	if neg.InternetShare != 0 {
		t.Errorf("negative InternetShare should mean 0, got %v", neg.InternetShare)
	}
}

func TestNoInternetShare(t *testing.T) {
	w, err := NewWorld(Config{Seed: 2, NumLeaves: 200, InternetShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range w.Leaves() {
		if strings.HasPrefix(l.RootName, "Internet Private CA") {
			t.Fatal("InternetShare<0 should issue all leaves under store roots")
		}
	}
}

func TestProbeTargetsUnique(t *testing.T) {
	targets := ProbeTargets()
	if len(targets) != len(InterceptedDomains)+len(WhitelistedDomains) {
		t.Errorf("targets = %d, want %d (orcart.facebook.com appears on two ports)",
			len(targets), len(InterceptedDomains)+len(WhitelistedDomains))
	}
	seen := map[string]bool{}
	for _, hp := range targets {
		if seen[hp.String()] {
			t.Errorf("duplicate target %s", hp)
		}
		seen[hp.String()] = true
	}
}

func TestSitesIssueValidChains(t *testing.T) {
	w := smallWorld(t)
	sites, err := NewSites(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites.All()) != len(ProbeTargets()) {
		t.Fatalf("sites = %d, want %d", len(sites.All()), len(ProbeTargets()))
	}
	for _, site := range sites.All() {
		root := site.Chain[len(site.Chain)-1]
		var inters []*x509.Certificate
		for _, c := range site.Chain[1 : len(site.Chain)-1] {
			inters = append(inters, c)
		}
		v := chain.NewVerifier([]*x509.Certificate{root}, inters, certgen.Epoch)
		if !v.Validates(site.Chain[0]) {
			t.Errorf("site %s chain does not validate", site.Host)
		}
		if site.Chain[0].Subject.CommonName != site.Host {
			t.Errorf("site %s leaf CN = %s", site.Host, site.Chain[0].Subject.CommonName)
		}
	}
	if sites.LookupHost("supl.google.com") == nil {
		t.Error("LookupHost(supl.google.com) failed")
	}
}

func TestServerHandshake(t *testing.T) {
	w := smallWorld(t)
	sites, err := NewSites(w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(sites)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dialer := DirectDialer{Server: srv}
	for _, host := range []string{"www.google.com", "gmail.com", "www.twitter.com"} {
		site := sites.LookupHost(host)
		if site == nil {
			t.Fatalf("no site for %s", host)
		}
		// Trust set: the site's own root; clock pinned to the Epoch.
		pool := x509.NewCertPool()
		pool.AddCert(site.Chain[len(site.Chain)-1])

		conn, err := dialer.DialSite(context.Background(), site.Host, site.Port)
		if err != nil {
			t.Fatal(err)
		}
		tconn := tls.Client(conn, &tls.Config{
			ServerName: site.Host,
			RootCAs:    pool,
			Time:       func() time.Time { return certgen.Epoch },
		})
		if err := tconn.Handshake(); err != nil {
			t.Fatalf("handshake with %s: %v", host, err)
		}
		peers := tconn.ConnectionState().PeerCertificates
		if len(peers) != len(site.Chain)-1 {
			t.Errorf("%s presented %d certs, want %d (leaf + intermediates)",
				host, len(peers), len(site.Chain)-1)
		}
		if peers[0].Subject.CommonName != host {
			t.Errorf("%s presented leaf CN %s", host, peers[0].Subject.CommonName)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(tconn, buf); err != nil || string(buf) != "220 " {
			t.Errorf("%s banner read: %q, %v", host, buf, err)
		}
		tconn.Close()
	}
}

func TestServerRejectsUnknownSNI(t *testing.T) {
	w := smallWorld(t)
	sites, err := NewSites(w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(sites)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := DirectDialer{Server: srv}.DialSite(context.Background(), "nonexistent.example", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tconn := tls.Client(conn, &tls.Config{
		ServerName:         "nonexistent.example",
		InsecureSkipVerify: true,
	})
	if err := tconn.Handshake(); err == nil {
		t.Error("handshake for unknown site should fail")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	w := smallWorld(t)
	sites, err := NewSites(w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestLeafObservationTimes(t *testing.T) {
	w := smallWorld(t)
	windowEnd := certgen.Epoch.AddDate(0, 6, 0)
	months := map[string]bool{}
	for _, l := range w.Leaves() {
		if l.SeenAt.Before(certgen.Epoch) || l.SeenAt.After(windowEnd) {
			t.Fatalf("observation %v outside the collection window", l.SeenAt)
		}
		months[l.SeenAt.Format("2006-01")] = true
	}
	if len(months) < 6 {
		t.Errorf("observations span %d months, want 6", len(months))
	}
}

// worldDigests hashes what the analyses read of a world, leaf by leaf in
// order: every chain member's to-be-signed bytes, then the observation
// metadata. The second digest hashes each member's full DER in place of
// its TBS, so it pins the signatures too.
func worldDigests(w *World) (tbs, der string) {
	ht, hd := sha256.New(), sha256.New()
	for _, l := range w.Leaves() {
		for _, c := range l.Chain {
			ht.Write(c.RawTBSCertificate)
			hd.Write(c.Raw)
		}
		meta := fmt.Sprintf("|%d|%v|%d|%s\n", l.Port, l.Expired, l.SeenAt.Unix(), l.RootName)
		ht.Write([]byte(meta))
		hd.Write([]byte(meta))
	}
	return hex.EncodeToString(ht.Sum(nil)), hex.EncodeToString(hd.Sum(nil))
}

// TestWorldContentPinned pins the world's content per seed, signed with
// one P and with at least two: parallel issuance must not change a serial,
// a key, a chain, a signature or an observation.
func TestWorldContentPinned(t *testing.T) {
	want := map[int64][2]string{
		1: {"72ffe2964dc5aeea85a476ec47bcc298db9b1e763c7250f1c90728304b623965", "bee4ff4dfeb45a3d665962b0c57e5bb47dbec3792722b6b23a6af2e8bcf17374"},
		7: {"d6fcce0b73bab5daec70b0bf8ab3b111b2e65326a44d5046a395a8b6ac170ba3", "295e08551a80ceae779fc0e9c36796bedaafcc1585d8a8b0913cf2b73078f317"},
	}
	for _, seed := range []int64{1, 7} {
		for _, procs := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
			// A fresh universe each time: a world continues its universe
			// generator's serial counter.
			u, err := cauniverse.New(seed)
			if err != nil {
				t.Fatal(err)
			}
			prev := runtime.GOMAXPROCS(procs)
			w, err := NewWorld(Config{Seed: seed, Universe: u, NumLeaves: 2000})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if tbs, der := worldDigests(w); tbs != want[seed][0] || der != want[seed][1] {
				t.Errorf("seed %d, GOMAXPROCS %d: world digests %s (TBS) and %s (DER), want %s and %s",
					seed, procs, tbs, der, want[seed][0], want[seed][1])
			}
		}
	}
}

// TestWorldLeavesVerify checks every leaf's signature against its issuer
// with the standard library, independently of the check certgen makes
// while issuing.
func TestWorldLeavesVerify(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		u, err := cauniverse.New(seed)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(Config{Seed: seed, Universe: u, NumLeaves: 2000})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range w.Leaves() {
			if err := l.Chain[0].CheckSignatureFrom(l.Chain[1]); err != nil {
				t.Fatalf("seed %d, leaf %d: %v", seed, i, err)
			}
		}
	}
}

// TestCloseWithSilentClient: a client that connects and never sends its
// ClientHello must not hold up Close — the handshake's read is expired.
func TestCloseWithSilentClient(t *testing.T) {
	sites, err := NewSites(smallWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(sites)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Connections are accepted in arrival order, so once a later client's
	// handshake completes the silent one is already being served.
	probe, err := tls.Dial("tcp", srv.Addr(), &tls.Config{ServerName: "www.google.com", InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		silent.Close()
		<-closed
		t.Fatal("Close waited on a client that never sent its ClientHello")
	}
}
