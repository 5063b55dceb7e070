// Package device simulates Android handsets at the level the paper studies:
// a system root store composed at firmware-build time (AOSP base plus
// manufacturer and operator additions), a user-managed store, the settings
// operations any user can perform (add / disable / delete, §2), and the
// rooting semantics that let apps tamper with the system store (§6).
package device

import (
	"crypto/x509"
	"errors"
	"fmt"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/rootstore"
)

// ErrReadOnlyStore is returned when a system-store mutation is attempted on
// a non-rooted device: "the root store by default only provides read access"
// (§2).
var ErrReadOnlyStore = errors.New("device: system root store is read-only (device not rooted)")

// ErrNeedsRoot is returned when an app requiring root permissions is
// installed on a non-rooted device.
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
	disabled map[certid.Identity]bool
	apps     []App
	policies []ValidationPolicy
	// channels records how each post-firmware certificate entered the
	// trust set (user settings vs rooted system-store write). Firmware
	// composition is never recorded: absence means ChannelFirmware.
	channels map[certid.Identity]Channel
}

// New builds a device whose system store is the AOSP base for its version
// plus the firmware additions its manufacturer and operator shipped.
// Firmware composition happens before first boot, so it bypasses the
// read-only rule.
func New(profile Profile, aospBase *rootstore.Store, firmwareAdditions []*x509.Certificate) *Device {
	d := &Device{
		Profile:  profile,
		system:   aospBase.Clone(profile.Manufacturer + " " + profile.Model + " system"),
		user:     rootstore.New(profile.Manufacturer + " " + profile.Model + " user"),
		disabled: make(map[certid.Identity]bool),
		channels: make(map[certid.Identity]Channel),
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
	d := &Device{
		Profile:  profile,
		rooted:   rooted,
		system:   system,
		user:     user,
		disabled: make(map[certid.Identity]bool),
		channels: make(map[certid.Identity]Channel),
	}
	// User-store membership is serialized separately, so the user channel
	// survives a round trip; rooted system-store writes are not
	// distinguishable from firmware in a snapshot and stay unrecorded
	// (population.Handset.TamperChannel carries that bit instead).
	for _, ref := range user.Refs() {
		d.channels[user.Corpus().Identity(ref)] = ChannelUser
	}
	return d
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
	d.channels[corpus.IdentityOf(cert)] = ChannelRootInstall
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
	d.channels[corpus.IdentityOf(cert)] = ChannelUser
}

// DisableCert marks a certificate as distrusted through system settings.
// Disabling works on any device and affects the effective store without
// modifying the system store files.
func (d *Device) DisableCert(id certid.Identity) {
	d.disabled[id] = true
}

// EnableCert reverts DisableCert.
func (d *Device) EnableCert(id certid.Identity) {
	delete(d.disabled, id)
}

// Disabled reports whether the identity is currently disabled.
func (d *Device) Disabled(id certid.Identity) bool { return d.disabled[id] }

// EffectiveStore returns the trust set apps actually validate against:
// system plus user certificates, minus disabled entries. The result is a
// fresh store; mutating it does not affect the device. Membership is
// copied by ref when the stores share a corpus — no certificate is
// re-interned or re-fingerprinted — preserving the system-then-user
// insertion order.
func (d *Device) EffectiveStore() *rootstore.Store {
	name := d.Manufacturer + " " + d.Model + " effective"
	var eff *rootstore.Store
	sources := []*rootstore.Store{d.system, d.user}
	if len(d.disabled) == 0 {
		// Nothing is disabled on the vast majority of devices: clone the
		// system membership wholesale instead of re-inserting it
		// certificate by certificate.
		eff = d.system.Clone(name)
		sources = sources[1:]
	} else {
		eff = rootstore.NewSized(name, d.system.Corpus(), d.system.Len()+d.user.Len())
	}
	for _, s := range sources {
		sc := s.Corpus()
		for _, ref := range s.Refs() {
			if len(d.disabled) > 0 && d.disabled[sc.Identity(ref)] {
				continue
			}
			if sc == eff.Corpus() {
				eff.AddRef(ref)
			} else {
				eff.Add(sc.Cert(ref))
			}
		}
	}
	return eff
}

// App models an installed application and the store side effects it
// requests. The paper's running example is the Freedom app: requires root,
// demands egregious permissions, and silently installs the "CRAZY HOUSE"
// root (§6).
type App struct {
	Name         string
	Permissions  []string
	RequiresRoot bool
	// InstallRoots are certificates the app adds to the system store on
	// installation (possible only with root).
	InstallRoots []*x509.Certificate
	// RemoveRoots are system roots the app deletes on installation.
	RemoveRoots []certid.Identity
	// VPNInterception marks apps that request the VPN permission and tunnel
	// traffic through an interception proxy (§7) — they need no store
	// modification at all.
	VPNInterception bool
}

// Install installs the app, applying its store side effects. An app with
// root requirements fails on a non-rooted device with ErrNeedsRoot; nothing
// is applied in that case.
func (d *Device) Install(app App) error {
	if app.RequiresRoot && !d.rooted {
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
	d.apps = append(d.apps, app)
	return nil
}

// Apps returns the installed apps in installation order.
func (d *Device) Apps() []App {
	out := make([]App, len(d.apps))
	copy(out, d.apps)
	return out
}
