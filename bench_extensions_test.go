package tangledmass

// Benchmarks for the extension subsystems (§8 recommendations, trust
// levels, the networked Notary, FOTA, pinning, dataset I/O).

import (
	"context"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/dataset"
	"tangledmass/internal/fota"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/pinning"
	"tangledmass/internal/recommend"
	"tangledmass/internal/tap"
	"tangledmass/internal/tlsnet"
	"tangledmass/internal/trustlevel"
)

// BenchmarkRecommendMinimize measures one §8 pruning proposal (threshold 1)
// over AOSP 4.4.
func BenchmarkRecommendMinimize(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := recommend.Minimize(f.notary, f.universe.AOSP("4.4"), 1)
		if len(m.Remove) == 0 {
			b.Fatal("nothing removable")
		}
	}
}

// BenchmarkRecommendSweep measures a full threshold sweep with breakage
// evaluation.
func BenchmarkRecommendSweep(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := recommend.Sweep(f.notary, f.universe.AOSP("4.4"), []int{1, 5, 25})
		if pts[0].Broken != 0 {
			b.Fatal("threshold-1 breakage should be zero")
		}
	}
}

// BenchmarkTrustSurface measures building the Mozilla-style policy and its
// surface report over the aggregated store.
func BenchmarkTrustSurface(b *testing.B) {
	f := benchFixtures(b)
	store := f.universe.AggregatedAndroid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := trustlevel.Surface("mozilla-style", trustlevel.MozillaStylePolicy(f.universe, store))
		if rep.ServerAuthRoots >= store.Len() {
			b.Fatal("policy should restrict something")
		}
	}
}

// BenchmarkNotarynetObserve measures client→server observation round-trips
// over TCP.
func BenchmarkNotarynetObserve(b *testing.B) {
	f := benchFixtures(b)
	srv, err := notarynet.NewServer(f.notary, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := notarynet.NewClient(context.Background(), srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	leaves := f.world.Leaves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := leaves[i%len(leaves)]
		if err := c.Observe(context.Background(), l.Chain, l.Port); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFOTAFetch measures a full firmware-update check: TLS handshake,
// channel verification, manifest verification.
func BenchmarkFOTAFetch(b *testing.B) {
	f := benchFixtures(b)
	root := f.universe.Root("Motorola FOTA Root CA")
	svc, err := f.universe.Generator().Leaf(root.Issued, "fota.vendor.example",
		certgen.WithKeyName("bench-fota-service"))
	if err != nil {
		b.Fatal(err)
	}
	payload := sha256.Sum256([]byte("firmware"))
	srv, err := fota.NewServer(&fota.Signer{Cert: svc}, fota.Manifest{
		Model: "Droid", Version: "4.4", PayloadSHA256: hex.EncodeToString(payload[:]),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	store := f.universe.AOSP("4.4").Clone("moto")
	store.Add(root.Issued.Cert)
	up := &fota.Updater{Store: store, FOTARoot: root.Issued.Cert, At: certgen.Epoch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Fetch(srv.Addr(), "fota.vendor.example"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPinningCheck measures one pin check against a 3-cert chain.
func BenchmarkPinningCheck(b *testing.B) {
	g := certgen.NewGenerator(200)
	root, _ := g.SelfSignedCA("Bench Pin Root")
	inter, _ := g.Intermediate(root, "Bench Pin Inter")
	leaf, _ := g.Leaf(inter, "bench.example.com")
	s := pinning.NewStore()
	s.Add("bench.example.com", inter.Cert)
	chain := []*x509.Certificate{leaf.Cert, inter.Cert, root.Cert}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Check("bench.example.com", chain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetWrite and BenchmarkDatasetRead measure the interchange
// layer at 10% fleet scale.
func BenchmarkDatasetWrite(b *testing.B) {
	f := benchFixtures(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dataset.NewWriter(filepath.Join(dir, "ds"), dataset.WithFormat(dataset.JSONL)).Write(context.Background(), f.pop); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetRead(b *testing.B) {
	f := benchFixtures(b)
	dir := filepath.Join(b.TempDir(), "ds")
	if err := dataset.NewWriter(dir, dataset.WithFormat(dataset.JSONL)).Write(context.Background(), f.pop); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dataset.NewReader(dir, dataset.WithUniverse(f.universe)).Read(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if p.TotalSessions() != f.pop.TotalSessions() {
			b.Fatal("round-trip session mismatch")
		}
	}
	b.StopTimer()
	os.RemoveAll(dir)
}

// BenchmarkDatasetReadColumnar measures loading the same fleet from the v2
// columnar format: one bulk intern of the deduplicated DER table and flat
// column decodes instead of the JSONL path's per-handset JSON parsing and
// fingerprint resolution.
func BenchmarkDatasetReadColumnar(b *testing.B) {
	f := benchFixtures(b)
	ctx := context.Background()
	dir := filepath.Join(b.TempDir(), "ds")
	if err := dataset.NewWriter(dir, dataset.WithFormat(dataset.Columnar)).Write(ctx, f.pop); err != nil {
		b.Fatal(err)
	}
	r := dataset.NewReader(dir, dataset.WithUniverse(f.universe))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := r.Read(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if p.TotalSessions() != f.pop.TotalSessions() {
			b.Fatal("round-trip session mismatch")
		}
	}
	b.StopTimer()
	os.RemoveAll(dir)
}

// BenchmarkDatasetConvert measures a full v1→v2 re-encode: JSONL load plus
// columnar write, the `tangled dataset convert` hot path.
func BenchmarkDatasetConvert(b *testing.B) {
	f := benchFixtures(b)
	ctx := context.Background()
	src := filepath.Join(b.TempDir(), "src")
	dst := filepath.Join(b.TempDir(), "dst")
	if err := dataset.NewWriter(src).Write(ctx, f.pop); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dataset.NewReader(src, dataset.WithUniverse(f.universe)).Read(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := dataset.NewWriter(dst, dataset.WithFormat(dataset.Columnar)).Write(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	os.RemoveAll(src)
	os.RemoveAll(dst)
}

// BenchmarkTapExtraction measures passive chain extraction: a full TLS 1.2
// handshake through the tap relay with parser attached.
func BenchmarkTapExtraction(b *testing.B) {
	f := benchFixtures(b)
	sites, err := tlsnet.NewSites(f.world)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := tlsnet.ServeSites(sites)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ndb := notary.New(certgen.Epoch)
	tp, err := tap.New(srv.Addr(), ndb, 443)
	if err != nil {
		b.Fatal(err)
	}
	defer tp.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := tls.Dial("tcp", tp.Addr(), &tls.Config{
			ServerName:         "www.google.com",
			InsecureSkipVerify: true,
			MaxVersion:         tls.VersionTLS12,
		})
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 4)
		io.ReadFull(conn, buf)
		conn.Close()
	}
	b.StopTimer()
	if tp.Extracted() == 0 {
		b.Fatal("tap extracted nothing")
	}
}

// BenchmarkTapParser measures the record/handshake parser alone on a
// pre-captured certificate flight.
func BenchmarkTapParser(b *testing.B) {
	f := benchFixtures(b)
	leaf := f.world.Leaves()[0]
	var flight []byte
	{
		var list []byte
		for _, c := range leaf.Chain {
			der := c.Raw
			list = append(list, byte(len(der)>>16), byte(len(der)>>8), byte(len(der)))
			list = append(list, der...)
		}
		body := append([]byte{byte(len(list) >> 16), byte(len(list) >> 8), byte(len(list))}, list...)
		msg := append([]byte{11, byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}, body...)
		flight = append([]byte{22, 3, 3, byte(len(msg) >> 8), byte(len(msg))}, msg...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &tap.StreamParser{}
		if err := p.Feed(flight); err != nil {
			b.Fatal(err)
		}
		if !p.Done() {
			b.Fatal("parser did not finish")
		}
	}
}
