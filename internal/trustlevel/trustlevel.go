// Package trustlevel models per-usage trust restrictions — the mechanism
// the paper points out Android lacks (§2: "Android does not support
// specifying trust levels for different CA certificates: they can be used
// for any operation from TLS server verification to code signing"; §8
// recommends adopting Mozilla's approach).
//
// A Policy wraps a root store with a usage mask per root. The Android
// policy grants every root every usage; a Mozilla-style policy restricts
// special-purpose roots (firmware update, code signing, payment) away from
// TLS server authentication. The package quantifies the §8 counterfactual:
// how much TLS attack surface per-usage trust would remove.
package trustlevel

import (
	"crypto/x509"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/rootstore"
)

// Usage is a bit mask of operations a root is trusted for.
type Usage uint8

const (
	// ServerAuth is TLS server authentication (the Web PKI usage).
	ServerAuth Usage = 1 << iota
	// EmailProtection is S/MIME.
	EmailProtection
	// CodeSigning covers code, firmware (FOTA), and app signing.
	CodeSigning
)

// AllUsages is Android's effective grant for every root-store member.
const AllUsages = ServerAuth | EmailProtection | CodeSigning

// Has reports whether u includes all bits of q.
func (u Usage) Has(q Usage) bool { return u&q == q }

// Policy is a root store with per-root usage masks. Construct with
// NewPolicy; roots without an explicit mask get the default.
type Policy struct {
	store        *rootstore.Store
	defaultUsage Usage
	usage        map[certid.Identity]Usage
}

// NewPolicy wraps store with the given default usage for unlisted roots.
func NewPolicy(store *rootstore.Store, defaultUsage Usage) *Policy {
	return &Policy{
		store:        store,
		defaultUsage: defaultUsage,
		usage:        make(map[certid.Identity]Usage),
	}
}

// Store returns the underlying store.
func (p *Policy) Store() *rootstore.Store { return p.store }

// SetUsage overrides one root's mask.
func (p *Policy) SetUsage(id certid.Identity, u Usage) {
	p.usage[id] = u
}

// UsageOf returns a root's effective mask (the default if unset, zero if
// the root is not in the store).
func (p *Policy) UsageOf(id certid.Identity) Usage {
	if !p.store.ContainsIdentity(id) {
		return 0
	}
	if u, ok := p.usage[id]; ok {
		return u
	}
	return p.defaultUsage
}

// RootsFor returns the store's roots trusted for usage u.
func (p *Policy) RootsFor(u Usage) []*x509.Certificate {
	var out []*x509.Certificate
	for _, c := range p.store.Certificates() {
		if p.UsageOf(corpus.IdentityOf(c)).Has(u) {
			out = append(out, c)
		}
	}
	return out
}

// AndroidPolicy models the platform as shipped: every root in the store is
// trusted for everything (§2).
func AndroidPolicy(store *rootstore.Store) *Policy {
	return NewPolicy(store, AllUsages)
}

// MozillaStylePolicy models the §8 recommendation applied to a device
// store: web-PKI roots keep server-auth, while special-purpose roots —
// firmware/code-signing and operator-service roots that never appear in TLS
// traffic — lose it. The assignment is derived from the universe's catalog
// classes:
//
//   - unrecorded extras (FOTA, SUPL, UTI, code-signing, operator APIs):
//     code-signing only;
//   - recorded Android-only extras: server-auth + email (observed in
//     traffic, but would require an audit to keep more);
//   - everything shipped by the AOSP/Mozilla/iOS programs: full usage.
func MozillaStylePolicy(u *cauniverse.Universe, store *rootstore.Store) *Policy {
	p := NewPolicy(store, AllUsages)
	for _, r := range u.Roots() {
		id := corpus.IdentityOf(r.Issued.Cert)
		if !store.ContainsIdentity(id) {
			continue
		}
		switch r.Class {
		case cauniverse.ExtraUnrecorded:
			p.SetUsage(id, CodeSigning)
		case cauniverse.ExtraAndroidRecorded:
			p.SetUsage(id, ServerAuth|EmailProtection)
		case cauniverse.RootedOnly, cauniverse.Interception:
			p.SetUsage(id, 0)
		}
	}
	return p
}

// SurfaceReport quantifies the TLS attack surface of a policy: how many
// roots can mint acceptable TLS server certificates.
type SurfaceReport struct {
	PolicyName      string
	TotalRoots      int
	ServerAuthRoots int
}

// RemovedFraction is the share of roots excluded from TLS.
func (r SurfaceReport) RemovedFraction() float64 {
	if r.TotalRoots == 0 {
		return 0
	}
	return 1 - float64(r.ServerAuthRoots)/float64(r.TotalRoots)
}

// Surface computes the report for a policy.
func Surface(name string, p *Policy) SurfaceReport {
	return SurfaceReport{
		PolicyName:      name,
		TotalRoots:      p.Store().Len(),
		ServerAuthRoots: len(p.RootsFor(ServerAuth)),
	}
}
