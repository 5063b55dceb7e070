package fota

import (
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"net"
	"testing"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/device"
)

// env builds the Motorola FOTA world: the universe's FOTA root, a service
// certificate under it, and a signed manifest server.
func env(t *testing.T) (*cauniverse.Universe, *Signer, *Server, Manifest) {
	t.Helper()
	u := cauniverse.Default()
	fotaRoot := u.Root("Motorola FOTA Root CA")
	svcCert, err := u.Generator().Leaf(fotaRoot.Issued, "fota.vendor.example",
		certgen.WithKeyName("fota-service"))
	if err != nil {
		t.Fatal(err)
	}
	signer := &Signer{Cert: svcCert}
	payload := sha256.Sum256([]byte("firmware image v4.4.2"))
	manifest := Manifest{
		Model:         "Droid Razr",
		Version:       "4.4.2",
		PayloadSHA256: hex.EncodeToString(payload[:]),
	}
	srv, err := NewServer(signer, manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return u, signer, srv, manifest
}

func TestMotorolaDeviceFetchesUpdate(t *testing.T) {
	u, _, srv, want := env(t)
	fota := u.Root("Motorola FOTA Root CA").Issued.Cert
	// The Motorola firmware image carries the FOTA root (§5.1).
	moto := device.New(device.Profile{Model: "Droid Razr", Manufacturer: "MOTOROLA", Version: "4.4"},
		u.AOSP("4.4"), []*x509.Certificate{fota})

	up := &Updater{Store: moto.EffectiveStore(), FOTARoot: fota, At: certgen.Epoch}
	got, err := up.Fetch(srv.Addr(), "fota.vendor.example")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.PayloadSHA256 != want.PayloadSHA256 {
		t.Errorf("manifest = %+v, want %+v", got, want)
	}
	if len(got.Signature) == 0 {
		t.Error("manifest should carry a signature")
	}
}

func TestStockDeviceRejectsChannel(t *testing.T) {
	u, _, srv, _ := env(t)
	fota := u.Root("Motorola FOTA Root CA").Issued.Cert
	// A stock AOSP device lacks the FOTA root: channel untrusted.
	stock := device.New(device.Profile{Model: "Nexus 5", Manufacturer: "LG", Version: "4.4"},
		u.AOSP("4.4"), nil)
	up := &Updater{Store: stock.EffectiveStore(), FOTARoot: fota, At: certgen.Epoch}
	_, err := up.Fetch(srv.Addr(), "fota.vendor.example")
	if !errors.Is(err, ErrChannelUntrusted) {
		t.Errorf("err = %v, want ErrChannelUntrusted", err)
	}
}

func TestTamperedManifestRejected(t *testing.T) {
	u, signer, _, manifest := env(t)
	signed, err := signer.Sign(manifest)
	if err != nil {
		t.Fatal(err)
	}
	up := &Updater{
		Store:    u.AOSP("4.4"),
		FOTARoot: u.Root("Motorola FOTA Root CA").Issued.Cert,
		At:       certgen.Epoch,
	}
	// Valid signature verifies.
	if err := up.VerifyManifest(signer.Cert.Cert, signed); err != nil {
		t.Fatalf("genuine manifest rejected: %v", err)
	}
	// Any field change invalidates it.
	tampered := signed
	tampered.Version = "4.4.2-evil"
	if err := up.VerifyManifest(signer.Cert.Cert, tampered); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered manifest err = %v, want ErrBadSignature", err)
	}
	tampered2 := signed
	tampered2.PayloadSHA256 = "00" + signed.PayloadSHA256[2:]
	if err := up.VerifyManifest(signer.Cert.Cert, tampered2); !errors.Is(err, ErrBadSignature) {
		t.Errorf("payload-swapped manifest err = %v, want ErrBadSignature", err)
	}
}

func TestWrongSignerRejected(t *testing.T) {
	u, _, _, manifest := env(t)
	// A manifest signed by an unrelated key (e.g. the interception CA).
	evil := &Signer{Cert: u.InterceptionRoot().Issued}
	signed, err := evil.Sign(manifest)
	if err != nil {
		t.Fatal(err)
	}
	fotaService, err := u.Generator().Leaf(u.Root("Motorola FOTA Root CA").Issued,
		"fota.vendor.example", certgen.WithKeyName("fota-service"))
	if err != nil {
		t.Fatal(err)
	}
	up := &Updater{
		Store:    u.AOSP("4.4"),
		FOTARoot: u.Root("Motorola FOTA Root CA").Issued.Cert,
		At:       certgen.Epoch,
	}
	if err := up.VerifyManifest(fotaService.Cert, signed); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong-signer manifest err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyChannelDirect(t *testing.T) {
	u, signer, _, _ := env(t)
	fota := u.Root("Motorola FOTA Root CA").Issued.Cert
	store := u.AOSP("4.4").Clone("moto")
	store.Add(fota)
	up := &Updater{Store: store, FOTARoot: fota, At: certgen.Epoch}
	if err := up.VerifyChannel(nil); !errors.Is(err, ErrChannelUntrusted) {
		t.Error("empty chain should be untrusted")
	}
	if err := up.VerifyChannel([]*x509.Certificate{signer.Cert.Cert}); err != nil {
		t.Errorf("FOTA-issued service cert should verify: %v", err)
	}
	// A web cert anchored in the store but NOT under the FOTA root is
	// refused — channel pinning to the special-purpose root.
	webRoot := u.IssuingRoots()[0]
	webLeaf, err := u.Generator().Leaf(webRoot.Issued, "fota.vendor.example",
		certgen.WithKeyName("fake-fota"))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.VerifyChannel([]*x509.Certificate{webLeaf.Cert}); !errors.Is(err, ErrChannelUntrusted) {
		t.Errorf("web-anchored channel err = %v, want ErrChannelUntrusted", err)
	}
}

// TestCloseWithSilentClient: a client that connects and never sends its
// ClientHello must not hold up Close — the handshake's read is expired.
func TestCloseWithSilentClient(t *testing.T) {
	_, _, srv, _ := env(t)
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Connections are accepted in arrival order, so once a later client's
	// handshake completes the silent one is already being served.
	probe, err := tls.Dial("tcp", srv.Addr(), &tls.Config{InsecureSkipVerify: true})
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
