package device

import (
	"crypto/x509"
	"errors"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certid"
)

func newTestDevice(t *testing.T, additions []*x509.Certificate) *Device {
	t.Helper()
	u := cauniverse.Default()
	return New(Profile{
		Model:        "Nexus 7",
		Manufacturer: "ASUS",
		Operator:     "T-MOBILE",
		Country:      "US",
		Version:      "4.4",
	}, u.AOSP("4.4"), additions)
}

func extraCert(t *testing.T, name string) *x509.Certificate {
	t.Helper()
	r := cauniverse.Default().Root(name)
	if r == nil {
		t.Fatalf("no such catalog root %q", name)
	}
	return r.Issued.Cert
}

func TestFirmwareComposition(t *testing.T) {
	adds := []*x509.Certificate{
		extraCert(t, "Motorola FOTA Root CA"),
		extraCert(t, "Motorola SUPL Server Root CA"),
	}
	d := newTestDevice(t, adds)
	if d.SystemStore().Len() != 152 {
		t.Errorf("system store = %d, want 150+2", d.SystemStore().Len())
	}
	for _, c := range adds {
		if !d.SystemStore().Contains(c) {
			t.Error("firmware addition missing from system store")
		}
	}
	// The base store was cloned, not shared.
	if cauniverse.Default().AOSP("4.4").Len() != 150 {
		t.Fatal("firmware composition mutated the AOSP base store")
	}
}

func TestSystemStoreReadOnlyUnlessRooted(t *testing.T) {
	d := newTestDevice(t, nil)
	crazy := extraCert(t, "CRAZY HOUSE")
	if err := d.AddSystemCert(crazy); !errors.Is(err, ErrReadOnlyStore) {
		t.Errorf("AddSystemCert on non-rooted = %v, want ErrReadOnlyStore", err)
	}
	someID := certid.IdentityOf(d.SystemStore().Certificates()[0])
	if err := d.RemoveSystemCert(someID); !errors.Is(err, ErrReadOnlyStore) {
		t.Errorf("RemoveSystemCert on non-rooted = %v, want ErrReadOnlyStore", err)
	}

	d.Root()
	if !d.Rooted() {
		t.Fatal("Root() did not root the device")
	}
	if err := d.AddSystemCert(crazy); err != nil {
		t.Errorf("AddSystemCert on rooted: %v", err)
	}
	if !d.SystemStore().Contains(crazy) {
		t.Error("cert not added after rooting")
	}
	if err := d.RemoveSystemCert(someID); err != nil {
		t.Errorf("RemoveSystemCert on rooted: %v", err)
	}
	if d.SystemStore().ContainsIdentity(someID) {
		t.Error("cert not removed after rooting")
	}
}

func TestUserStoreAlwaysWritable(t *testing.T) {
	d := newTestDevice(t, nil)
	vpn := extraCert(t, "USER_X")
	d.AddUserCert(vpn)
	if !d.UserStore().Contains(vpn) {
		t.Error("user cert missing from user store")
	}
	if d.SystemStore().Contains(vpn) {
		t.Error("user cert leaked into system store")
	}
	if !d.EffectiveStore().Contains(vpn) {
		t.Error("user cert missing from effective store")
	}
}

func TestEffectiveStoreIsACopy(t *testing.T) {
	d := newTestDevice(t, nil)
	eff := d.EffectiveStore()
	eff.Add(extraCert(t, "MIND OVERFLOW"))
	if d.SystemStore().Contains(extraCert(t, "MIND OVERFLOW")) {
		t.Error("mutating effective store affected system store")
	}
}

func TestFreedomAppRequiresRoot(t *testing.T) {
	d := newTestDevice(t, nil)
	freedom := App{
		Name:         "Freedom",
		InstallRoots: []*x509.Certificate{extraCert(t, "CRAZY HOUSE")},
	}
	if err := d.Install(freedom); !errors.Is(err, ErrNeedsRoot) {
		t.Errorf("install on non-rooted = %v, want ErrNeedsRoot", err)
	}
	if d.SystemStore().Contains(extraCert(t, "CRAZY HOUSE")) {
		t.Error("failed install should not touch the store")
	}

	d.Root()
	if err := d.Install(freedom); err != nil {
		t.Fatalf("install on rooted: %v", err)
	}
	if !d.SystemStore().Contains(extraCert(t, "CRAZY HOUSE")) {
		t.Error("Freedom should have installed CRAZY HOUSE into the system store")
	}
}

func TestAppRemovingRoots(t *testing.T) {
	d := newTestDevice(t, nil)
	victim := certid.IdentityOf(d.SystemStore().Certificates()[0])
	evil := App{Name: "StorePruner", RemoveRoots: []certid.Identity{victim}}
	if err := d.Install(evil); !errors.Is(err, ErrNeedsRoot) || !d.SystemStore().ContainsIdentity(victim) {
		t.Fatalf("install on non-rooted = %v, want ErrNeedsRoot and the root kept", err)
	}

	d.Root()
	if err := d.Install(evil); err != nil {
		t.Fatal(err)
	}
	if d.SystemStore().ContainsIdentity(victim) {
		t.Error("app should have removed the root")
	}
}

func TestEffectiveStoreUnion(t *testing.T) {
	adds := []*x509.Certificate{extraCert(t, "DoD CLASS 3 Root CA")}
	d := newTestDevice(t, adds)
	d.AddUserCert(extraCert(t, "USER_X"))
	eff := d.EffectiveStore()
	want := d.SystemStore().Len() + d.UserStore().Len()
	if eff.Len() != want {
		t.Errorf("effective = %d, want %d", eff.Len(), want)
	}
}

func TestDeviceProfile(t *testing.T) {
	d := newTestDevice(t, nil)
	if d.Manufacturer != "ASUS" || d.Model != "Nexus 7" || d.Version != "4.4" {
		t.Errorf("profile = %+v", d.Profile)
	}
}
