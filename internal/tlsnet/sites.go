package tlsnet

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"

	"tangledmass/internal/certgen"
)

// HostPort names one probe target.
type HostPort struct {
	Host string
	Port int
}

func (hp HostPort) String() string { return fmt.Sprintf("%s:%d", hp.Host, hp.Port) }

// InterceptedDomains and WhitelistedDomains reproduce Table 6: the domains
// the marketing proxy intercepted versus those it tunneled untouched
// (services with certificate pinning, Google's SUPL port, Facebook chat).
var InterceptedDomains = []HostPort{
	{"gmail.com", 443},
	{"mail.google.com", 443},
	{"mail.yahoo.com", 443},
	{"orcart.facebook.com", 443},
	{"www.bankofamerica.com", 443},
	{"www.chase.com", 443},
	{"www.hsbc.com", 443},
	{"www.icsi.berkeley.edu", 443},
	{"www.outlook.com", 443},
	{"www.skype.com", 443},
	{"www.viber.com", 443},
	{"www.yahoo.com", 443},
}

var WhitelistedDomains = []HostPort{
	{"google-analytics.com", 443},
	{"maps.google.com", 443},
	{"orcart.facebook.com", 8883},
	{"play.google.com", 443},
	{"supl.google.com", 7275},
	{"www.facebook.com", 443},
	{"www.google.com", 443},
	{"www.google.co.uk", 443},
	{"www.twitter.com", 443},
}

// ProbeTargets is the union of Table 6's domains — the domain list Netalyzr
// checks the full trust chain for (§7).
func ProbeTargets() []HostPort {
	seen := map[string]bool{}
	var out []HostPort
	for _, hp := range append(append([]HostPort{}, InterceptedDomains...), WhitelistedDomains...) {
		if !seen[hp.String()] {
			seen[hp.String()] = true
			out = append(out, hp)
		}
	}
	return out
}

// Site is one named TLS service with its legitimate certificate chain.
type Site struct {
	HostPort
	// Chain is leaf-first: leaf, intermediate, root.
	Chain []*x509.Certificate
	// Credential is the serving certificate (leaf + intermediate) and key.
	Credential tls.Certificate
	// Root is the issuing root's universe name.
	Root string
}

// Sites is the directory of named services.
type Sites struct {
	byKey map[string]*Site
	list  []*Site
}

// NewSites issues a legitimate certificate chain for every probe target,
// rotating across the most popular shared roots (via their intermediates
// when present in w, or directly off the root otherwise).
func NewSites(w *World) (*Sites, error) {
	u := w.Universe()
	gen := u.Generator()
	issuing := u.IssuingRoots()
	s := &Sites{byKey: make(map[string]*Site)}
	for i, hp := range ProbeTargets() {
		root := issuing[i%12] // the dozen most popular roots
		signer := root.Issued
		chainCAs := []*x509.Certificate{root.Issued.Cert}
		if inter := w.Intermediate(root.Name); inter != nil {
			signer = inter
			chainCAs = []*x509.Certificate{inter.Cert, root.Issued.Cert}
		}
		leaf, err := gen.Leaf(signer, hp.Host,
			certgen.WithOrganization("Site Operator"),
			certgen.WithValidity(certgen.Epoch.AddDate(-1, 0, 0), certgen.Epoch.AddDate(2, 0, 0)))
		if err != nil {
			return nil, fmt.Errorf("tlsnet: issuing site cert for %s: %w", hp.Host, err)
		}
		chain := append([]*x509.Certificate{leaf.Cert}, chainCAs...)
		cred := tls.Certificate{PrivateKey: leaf.Key}
		for _, c := range chain[:len(chain)-1] { // serve leaf + intermediates, not the root
			cred.Certificate = append(cred.Certificate, c.Raw)
		}
		site := &Site{HostPort: hp, Chain: chain, Credential: cred, Root: root.Name}
		s.byKey[hp.String()] = site
		s.list = append(s.list, site)
	}
	return s, nil
}

// Lookup returns the site for host:port, or nil.
func (s *Sites) Lookup(host string, port int) *Site {
	return s.byKey[HostPort{host, port}.String()]
}

// LookupHost returns the first site with the given host on any port, or nil.
func (s *Sites) LookupHost(host string) *Site {
	for _, site := range s.list {
		if site.Host == host {
			return site
		}
	}
	return nil
}

// All returns every site.
func (s *Sites) All() []*Site {
	out := make([]*Site, len(s.list))
	copy(out, s.list)
	return out
}
