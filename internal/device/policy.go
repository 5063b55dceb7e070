package device

import "crypto/x509"

// ValidationPolicy describes how one installed app validates TLS — the
// app-level failure modes the Okara and "Danger is My Middle Name" studies
// catalogue. The zero value is the platform default: full chain building,
// hostname verification, and pin enforcement. Each flag disables one layer
// of the decision. internal/trusteval applies AcceptAll and SkipHostname as
// recorded overrides, so an interception success is attributable to the
// exact layer that let it through. It checks no pins: BypassPins is fleet
// ground truth, which the datasets record and the offline session
// attribution reads.
type ValidationPolicy struct {
	// App names the profile ("ad-sdk-webview", "accept-all-trust-manager").
	App string
	// AcceptAll marks a custom TrustManager whose checkServerTrusted is
	// empty: any chain "validates", trusted root or not.
	AcceptAll bool
	// SkipHostname marks an ALLOW_ALL_HOSTNAME_VERIFIER: the leaf is never
	// checked against the requested host.
	SkipHostname bool
	// BypassPins marks a build with pinning disabled (debug flag left on,
	// or a pin-bypass framework hook): pin mismatches are ignored.
	BypassPins bool
}

// Channel identifies how a certificate entered a device's trust set.
type Channel int

const (
	// ChannelFirmware covers roots present since firmware build: the AOSP
	// base plus manufacturer/operator additions.
	ChannelFirmware Channel = iota
	// ChannelUser covers certificates added to the user store through
	// system settings or a CA-installing app (§2: any user may).
	ChannelUser
	// ChannelRootInstall covers system-store writes after first boot —
	// possible only on rooted devices (§6: the Freedom app's CRAZY HOUSE
	// root).
	ChannelRootInstall
)

func (c Channel) String() string {
	switch c {
	case ChannelUser:
		return "user"
	case ChannelRootInstall:
		return "system"
	}
	return "firmware"
}

// APILevel maps an Android version string to its API level — the axis the
// install-channel gate and the attribution analysis split on. Unknown
// versions map to 10 (the 2.3 era floor of the paper's fleet).
func APILevel(version string) int {
	switch version {
	case "4.4":
		return 19
	case "4.3":
		return 18
	case "4.2":
		return 17
	case "4.1":
		return 16
	case "4.0":
		return 14
	case "2.3":
		return 9
	}
	return 10
}

// SystemInstallMinAPI is the API level from which CA-installing apps prefer
// the system store when they can get it: Android 4.4 (API 19) introduced
// the persistent "network may be monitored" notification for user-store
// CAs, so root-capable apps moved their certificates into the system store
// to stay silent. Below the gate the user store is silent and no app
// bothers with root. This mirrors the API-gated user-vs-system install
// split of the Android certificate-installer exemplar (where the gate sits
// at API 24 for the same reason: silent installs moved again).
const SystemInstallMinAPI = 19

// InstallCA installs a CA certificate the way a certificate-installing app
// would, choosing the channel by API level and root state: at or above
// SystemInstallMinAPI a rooted device takes the silent system-store path;
// everything else lands in the (pre-warning silent, post-warning warned)
// user store. The chosen channel is returned;
// population.Handset.TamperChannel derives a handset's channel from its
// serialized state.
func (d *Device) InstallCA(cert *x509.Certificate) Channel {
	if APILevel(d.Version) >= SystemInstallMinAPI && d.rooted {
		// AddSystemCert cannot fail on a rooted device.
		_ = d.AddSystemCert(cert)
		return ChannelRootInstall
	}
	d.AddUserCert(cert)
	return ChannelUser
}

// AddPolicy records an installed app's validation policy. The device
// carries the policy set; sessions draw one profile per execution
// (internal/population) and the trust-evaluation engine applies it.
func (d *Device) AddPolicy(p ValidationPolicy) {
	d.policies = append(d.policies, p)
}

// Policies returns the recorded app validation policies in installation
// order.
func (d *Device) Policies() []ValidationPolicy {
	out := make([]ValidationPolicy, len(d.policies))
	copy(out, d.policies)
	return out
}
