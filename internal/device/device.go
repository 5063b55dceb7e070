// Package device simulates Android handsets at the level the paper studies:
// a system root store composed at firmware-build time (AOSP base plus
// manufacturer and operator additions), a user-managed store that any user
// can add to (§2), and the rooting semantics that let apps tamper with the
// system store (§6).
package device

import (
	"crypto/x509"
	"errors"
	"fmt"

	"tangledmass/internal/certid"
	"tangledmass/internal/rootstore"
)

// ErrReadOnlyStore is returned when a system-store mutation is attempted on
// a non-rooted device: "the root store by default only provides read access"
// (§2).
var ErrReadOnlyStore = errors.New("device: system root store is read-only (device not rooted)")

// ErrNeedsRoot is returned when an app is installed on a non-rooted device:
// every app the model keeps writes the system store.
var ErrNeedsRoot = errors.New("device: app requires root permissions")

// Profile describes a handset's static identity.
type Profile struct {
	Model        string
	Manufacturer string
	Operator     string
	Country      string
	Version      string // Android version, e.g. "4.4"
}

// Device is one simulated handset. Construct with New; the zero value is not
// usable.
type Device struct {
	Profile
	rooted   bool
	system   *rootstore.Store
	user     *rootstore.Store
	policies []ValidationPolicy
}

// New builds a device whose system store is the AOSP base for its version
// plus the firmware additions its manufacturer and operator shipped.
// Firmware composition happens before first boot, so it bypasses the
// read-only rule.
func New(profile Profile, aospBase *rootstore.Store, firmwareAdditions []*x509.Certificate) *Device {
	d := &Device{
		Profile: profile,
		system:  aospBase.Clone(profile.Manufacturer + " " + profile.Model + " system"),
		user:    rootstore.New(profile.Manufacturer + " " + profile.Model + " user"),
	}
	d.system.AddAll(firmwareAdditions)
	return d
}

// Restore rebuilds a device from captured stores — the dataset loader's
// constructor. The system store is adopted as-is (a serialized store is an
// exact snapshot of the device's system image, so no base-image clone or
// re-composition happens), user certificates arrive in their own store,
// and rooting is restored directly. A nil user store means none were
// installed.
func Restore(profile Profile, system, user *rootstore.Store, rooted bool) *Device {
	if user == nil {
		user = rootstore.NewIn(profile.Manufacturer+" "+profile.Model+" user", system.Corpus())
	}
	return &Device{Profile: profile, rooted: rooted, system: system, user: user}
}

// Rooted reports whether the device has been rooted.
func (d *Device) Rooted() bool { return d.rooted }

// Root roots the device (user-initiated rooting or a successful root
// exploit). From here on the system store is writable by apps.
func (d *Device) Root() { d.rooted = true }

// SystemStore returns the system root store (shared reference; treat as
// read-only and mutate through the Device methods, which enforce the
// platform rules).
func (d *Device) SystemStore() *rootstore.Store { return d.system }

// UserStore returns the user-added certificate store.
func (d *Device) UserStore() *rootstore.Store { return d.user }

// AddSystemCert installs a certificate into the system store. It fails with
// ErrReadOnlyStore unless the device is rooted.
func (d *Device) AddSystemCert(cert *x509.Certificate) error {
	if !d.rooted {
		return ErrReadOnlyStore
	}
	d.system.Add(cert)
	return nil
}

// RemoveSystemCert deletes a certificate from the system store. It fails
// with ErrReadOnlyStore unless the device is rooted.
func (d *Device) RemoveSystemCert(id certid.Identity) error {
	if !d.rooted {
		return ErrReadOnlyStore
	}
	d.system.Remove(id)
	return nil
}

// AddUserCert installs a certificate through system settings. Any user may
// do this on any device (§2) — no root required.
func (d *Device) AddUserCert(cert *x509.Certificate) {
	d.user.Add(cert)
}

// EffectiveStore returns the trust set apps actually validate against: the
// system certificates followed by the user certificates. The result is a
// fresh store; mutating it does not affect the device. The system
// membership is cloned wholesale and user members are copied by ref when
// the stores share a corpus, so no certificate is re-interned or
// re-fingerprinted.
func (d *Device) EffectiveStore() *rootstore.Store {
	eff := d.system.Clone(d.Manufacturer + " " + d.Model + " effective")
	uc := d.user.Corpus()
	for _, ref := range d.user.Refs() {
		if uc == eff.Corpus() {
			eff.AddRef(ref)
		} else {
			eff.Add(uc.Cert(ref))
		}
	}
	return eff
}

// App models an application's store side effects on installation. The
// paper's running example is the Freedom app: it requires root and
// silently installs the "CRAZY HOUSE" root (§6).
type App struct {
	Name string
	// InstallRoots are certificates the app adds to the system store on
	// installation (possible only with root).
	InstallRoots []*x509.Certificate
	// RemoveRoots are system roots the app deletes on installation.
	RemoveRoots []certid.Identity
}

// Install installs the app, applying its store side effects. On a
// non-rooted device it fails with ErrNeedsRoot and applies nothing.
func (d *Device) Install(app App) error {
	if !d.rooted {
		return fmt.Errorf("installing %q: %w", app.Name, ErrNeedsRoot)
	}
	for _, c := range app.InstallRoots {
		if err := d.AddSystemCert(c); err != nil {
			return fmt.Errorf("installing %q: %w", app.Name, err)
		}
	}
	for _, id := range app.RemoveRoots {
		if err := d.RemoveSystemCert(id); err != nil {
			return fmt.Errorf("installing %q: %w", app.Name, err)
		}
	}
	return nil
}
