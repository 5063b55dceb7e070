package analysis

import (
	"crypto/x509"
	"sort"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certid"
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

// Fig2Legend lists every Fig2Class in Figure 2's legend order.
var Fig2Legend = [...]Fig2Class{
	ClassMozillaAndIOS7,
	ClassIOS7Only,
	ClassMozillaOnly,
	ClassOnlyAndroid,
	ClassNotRecorded,
}

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
	// A handset's firmware additions are its store's certificates outside
	// both the AOSP store of its version and its user store: user-installed
	// roots (the §5.2 per-device VPN certificates) are not vendor or
	// operator behaviour. They depend only on those three stores, so each
	// distinct triple is scanned once into an addition set.
	type setKey struct {
		store, user storeKey
		version     string
	}
	type addition struct {
		cert int // index into certs
		inst *x509.Certificate
	}
	// fig2Cert is one added identity: the instance its last sighting
	// carried, and its label once a reported cell needs it.
	type fig2Cert struct {
		id    certid.Identity
		inst  *x509.Certificate
		label *AttributionCell
	}
	type group struct{ kind, name string }

	setOf := map[setKey]int{}
	var sets [][]addition
	certOf := map[certid.Identity]int{}
	var certs []fig2Cert
	sessions := map[group]map[int]int{} // group → addition set → sessions
	for _, h := range p.Handsets {
		// Rooted handsets are analyzed separately (§4.1: "We analyzed
		// rooted handsets separately from operator and manufacturer
		// root stores to avoid any bias") — see Table5.
		if h.SessionCount == 0 || h.ExtraCount == 0 || h.Rooted {
			continue
		}
		user := h.Device.UserStore()
		k := setKey{keyOf(h.Store), keyOf(user), h.Version}
		si, ok := setOf[k]
		if !ok {
			si = len(sets)
			setOf[k] = si
			var adds []addition
			aosp, sc := p.Universe.AOSP(h.Version), h.Store.Corpus()
			for i := range h.Store.Len() {
				ref := h.Store.RefAt(i)
				if aosp.ContainsRef(sc, ref) || user.ContainsRef(sc, ref) {
					continue
				}
				id := sc.Identity(ref)
				ci, ok := certOf[id]
				if !ok {
					ci = len(certs)
					certOf[id] = ci
					certs = append(certs, fig2Cert{id: id})
				}
				adds = append(adds, addition{ci, sc.Cert(ref)})
			}
			sets = append(sets, adds)
		}
		// Sessions run in fleet order, so the last handset to carry an
		// identity holds the instance its last sighting saw.
		for _, ad := range sets[si] {
			certs[ad.cert].inst = ad.inst
		}
		for _, g := range [...]group{
			{"manufacturer", h.Manufacturer + " " + h.Version},
			{"operator", h.Operator + "(" + h.Country + ")"},
		} {
			if sessions[g] == nil {
				sessions[g] = map[int]int{}
			}
			sessions[g][si] += h.SessionCount
		}
	}

	names := catalogNames(p.Universe)
	var cells []AttributionCell
	counts := make([]int, len(certs))
	for g, bySet := range sessions {
		total := 0
		for _, w := range bySet {
			total += w
		}
		if total < minSessions {
			continue
		}
		clear(counts)
		for si, w := range bySet {
			for _, ad := range sets[si] {
				counts[ad.cert] += w
			}
		}
		for ci, count := range counts {
			if count == 0 {
				continue
			}
			c := &certs[ci]
			if c.label == nil {
				name := names[c.id]
				if name == "" {
					name = c.inst.Subject.CommonName
				}
				c.label = &AttributionCell{
					CertName: name,
					CertHash: certid.SubjectHashString(c.inst),
					Class:    presenceClass(c.inst, p.Universe, n),
				}
			}
			cell := *c.label
			cell.Group, cell.GroupKind = g.name, g.kind
			cell.Sessions, cell.Ratio = count, float64(count)/float64(total)
			cells = append(cells, cell)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.GroupKind != b.GroupKind {
			return a.GroupKind < b.GroupKind
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.CertName < b.CertName
	})
	return cells
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
