package analysis

import (
	"sort"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/population"
)

// operatorRootOwners maps operator-service roots to the operator that
// issues them. §5.2 reasons from these: "the appearance of a root
// certificate issued by an operator different than the operator providing
// the network access suggests a user roaming or traveling abroad" (e.g.
// Telefonica roots observed on Claro networks in Latin America).
var operatorRootOwners = map[string]string{
	"Vodafone (Operator Domain)":        "VODAFONE",
	"Vodafone (Widget Operator Domain)": "VODAFONE",
	"Sprint Nextel Root Authority":      "SPRINT",
	"Sprint XCA01":                      "SPRINT",
	"Cingular Preferred Root CA":        "AT&T",
	"Cingular Trusted Root CA":          "AT&T",
	"Verizon Wireless Network API CA":   "VERIZON",
	"Meditel Root CA":                   "MEDITEL",
	"Telefonica Root CA 1":              "TELEFONICA",
	"Telefonica Root CA 2":              "TELEFONICA",
}

// RoamingCandidate is one handset whose store carries another operator's
// service root — the §5.2 roaming signal.
type RoamingCandidate struct {
	HandsetID       int
	Model           string
	ServingOperator string
	ServingCountry  string
	// RootOwner is the operator that issued the foreign root; RootName the
	// certificate.
	RootOwner string
	RootName  string
}

// RoamingCandidates scans the fleet for operator-service roots observed on
// a different operator's network. Rooted handsets are excluded (their
// stores are not trustworthy evidence of firmware provenance, §4.1).
func RoamingCandidates(p *population.Population) []RoamingCandidate {
	u := p.Universe
	owners := map[certid.Identity]struct{ owner, name string }{}
	for name, owner := range operatorRootOwners {
		if r := u.Root(name); r != nil {
			owners[corpus.IdentityOf(r.Issued.Cert)] = struct{ owner, name string }{owner, name}
		}
	}
	out := accumulate(len(p.Handsets),
		func() []RoamingCandidate { return nil },
		func(out []RoamingCandidate, start, end int) []RoamingCandidate {
			for i := start; i < end; i++ {
				h := p.Handsets[i]
				if h.Rooted {
					continue
				}
				for _, ref := range h.Store.Refs() {
					own, ok := owners[h.Store.Corpus().Identity(ref)]
					if !ok || own.owner == h.Operator {
						continue
					}
					out = append(out, RoamingCandidate{
						HandsetID:       h.ID,
						Model:           h.Model,
						ServingOperator: h.Operator,
						ServingCountry:  h.Country,
						RootOwner:       own.owner,
						RootName:        own.name,
					})
				}
			}
			return out
		},
		func(into, from []RoamingCandidate) []RoamingCandidate { return append(into, from...) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].HandsetID != out[j].HandsetID {
			return out[i].HandsetID < out[j].HandsetID
		}
		return out[i].RootName < out[j].RootName
	})
	return out
}
