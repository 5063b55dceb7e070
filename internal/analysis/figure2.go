package analysis

import (
	"crypto/x509"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
)

// Fig2Class is Figure 2's shape legend: where else a non-AOSP certificate
// observed on Android devices is known from.
type Fig2Class string

const (
	ClassMozillaAndIOS7 Fig2Class = "Mozilla, and iOS7"
	ClassIOS7Only       Fig2Class = "iOS7"
	ClassMozillaOnly    Fig2Class = "Mozilla"
	ClassOnlyAndroid    Fig2Class = "Only Android"
	ClassNotRecorded    Fig2Class = "Not recorded by ICSI Notary"
)

// presenceClass classifies one certificate against the universe's Mozilla
// and iOS7 stores and the Notary's records, as Figure 2's legend does.
func presenceClass(cert *x509.Certificate, u *cauniverse.Universe, n *notary.Notary) Fig2Class {
	inMoz := u.Mozilla().Contains(cert)
	inIOS := u.IOS7().Contains(cert)
	switch {
	case inMoz && inIOS:
		return ClassMozillaAndIOS7
	case inIOS:
		return ClassIOS7Only
	case inMoz:
		return ClassMozillaOnly
	case n != nil && n.HasRecord(cert):
		return ClassOnlyAndroid
	default:
		return ClassNotRecorded
	}
}

// AttributionCell is one marker of Figure 2: within a manufacturer+version
// or operator group, the fraction of modified-store sessions that carry a
// given non-AOSP certificate.
type AttributionCell struct {
	// Group is "SAMSUNG 4.1" (manufacturer kind) or "VERIZON(US)" (operator
	// kind).
	Group string
	// GroupKind is "manufacturer" or "operator".
	GroupKind string
	// CertName is the certificate's display name (universe catalog name or
	// subject CN for user certs); CertHash is the 8-hex Android subject
	// hash shown in the paper's labels.
	CertName string
	CertHash string
	// Sessions carrying the certificate, and Ratio = Sessions / group's
	// modified-store session total.
	Sessions int
	Ratio    float64
	// Class is the presence-class legend value.
	Class Fig2Class
}

// Figure2 builds the attribution matrix. Groups with fewer than minSessions
// modified-store sessions are omitted, as in the paper ("we omit handset
// manufacturers and operators with fewer than 10 sessions exhibiting
// modified root stores").
func Figure2(p *population.Population, n *notary.Notary, minSessions int) []AttributionCell {
	return reduce(p, func() *figure2Agg { return newFigure2Agg(p.Universe, n, minSessions) })
}

// ClassShares summarizes the fraction of distinct displayed certificates in
// each presence class — the 6.7% / 16.2% / 37.1% / 40.0% split quoted in §5.
func ClassShares(cells []AttributionCell) map[Fig2Class]float64 {
	classByCert := map[string]Fig2Class{}
	for _, c := range cells {
		classByCert[c.CertName] = c.Class
	}
	if len(classByCert) == 0 {
		return nil
	}
	counts := map[Fig2Class]int{}
	for _, cl := range classByCert {
		counts[cl]++
	}
	out := map[Fig2Class]float64{}
	for cl, n := range counts {
		out[cl] = float64(n) / float64(len(classByCert))
	}
	return out
}
