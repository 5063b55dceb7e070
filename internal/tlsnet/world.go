// Package tlsnet simulates the TLS internet the ICSI Certificate Notary
// observes (§4.2): a population of server certificates issued under the CA
// universe plus internet-only private CAs, with a Zipf-skewed popularity law
// over issuing roots. It also runs real TLS servers on loopback so the
// measurement client and the interception proxy exercise genuine handshakes.
//
// Calibration targets:
//
//   - each root store validates ≈74% of the Notary's non-expired
//     certificates (Table 3: 744k of ~1M), with only per-mille differences
//     between stores — so ~26% of leaves chain to roots outside every store;
//   - a few shared AOSP∩Mozilla roots validate most certificates while long
//     tails validate few or none (Figure 3's shape).
package tlsnet

import (
	"crypto/x509"
	"fmt"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/stats"
)

// Config parameterizes world generation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Universe supplies the store-member CAs. Nil means the default.
	Universe *cauniverse.Universe
	// NumLeaves is how many server certificates exist. The paper's Notary
	// holds ~1M non-expired certificates; the default (20,000) reproduces
	// the distributional shape at tractable cost. Values <= 0 mean default.
	NumLeaves int
	// ExpiredFraction of leaves are already expired at the Epoch (the
	// Notary also stores expired certificates). Default 0.08.
	ExpiredFraction float64
	// InternetShare is the fraction of leaves issued by internet-only CAs
	// that are in no studied root store. Zero means the default 0.26
	// (yielding Table 3's ≈74% validation rate); a negative value means
	// every leaf chains to a store-member root.
	InternetShare float64
	// InternetOnlyRoots is how many such CAs exist. Default 40.
	InternetOnlyRoots int
	// ZipfS is the popularity exponent over issuing roots. Default 1.10.
	ZipfS float64
}

func (c Config) withDefaults() Config {
	if c.Universe == nil {
		c.Universe = cauniverse.Default()
	}
	if c.NumLeaves <= 0 {
		c.NumLeaves = 20000
	}
	if c.ExpiredFraction <= 0 {
		c.ExpiredFraction = 0.08
	}
	if c.InternetShare == 0 {
		c.InternetShare = 0.26
	} else if c.InternetShare < 0 {
		c.InternetShare = 0
	}
	if c.InternetOnlyRoots <= 0 {
		c.InternetOnlyRoots = 40
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.10
	}
	return c
}

// Leaf is one server certificate with its chain and observation metadata.
type Leaf struct {
	// Chain is leaf-first: leaf [, intermediate] , root.
	Chain []*x509.Certificate
	// Port is the TCP port the certificate was observed on.
	Port int
	// Expired reports whether the leaf is expired at the Epoch.
	Expired bool
	// SeenAt is the observation instant, spread across the Notary's
	// collection window.
	SeenAt time.Time
	// RootName names the issuing root (universe name or internet-only CA).
	RootName string
}

// World is the generated TLS internet.
type World struct {
	universe      *cauniverse.Universe
	internetRoots []*certgen.Issued
	intermediates map[string]*certgen.Issued // per popular root
	leaves        []Leaf
}

// ports is the observation port mix (the Notary records any port, §4.2).
var ports = []struct {
	port   int
	weight float64
}{
	{443, 0.82}, {993, 0.05}, {465, 0.04}, {8443, 0.04}, {8883, 0.03}, {7275, 0.02},
}

// NewWorld generates the world deterministically from cfg.
func NewWorld(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	u := cfg.Universe
	w := &World{universe: u, intermediates: make(map[string]*certgen.Issued)}
	src := stats.NewSource(cfg.Seed)
	gen := u.Generator()

	// Internet-only CAs: private/corporate roots in no studied store.
	for i := 0; i < cfg.InternetOnlyRoots; i++ {
		ca, err := gen.SelfSignedCA(fmt.Sprintf("Internet Private CA %03d", i+1),
			certgen.WithOrganization("Private Infrastructure"), certgen.WithCountry("US"))
		if err != nil {
			return nil, fmt.Errorf("tlsnet: issuing internet CA: %w", err)
		}
		w.internetRoots = append(w.internetRoots, ca)
	}

	issuing := u.IssuingRoots()
	zipf, err := stats.NewZipf(len(issuing), cfg.ZipfS, 1.5)
	if err != nil {
		return nil, err
	}

	// The most popular roots issue through an intermediate, as real CAs do.
	const intermediateRanks = 25
	for i := 0; i < intermediateRanks && i < len(issuing); i++ {
		r := issuing[i]
		inter, err := gen.Intermediate(r.Issued, r.Name+" Intermediate G1")
		if err != nil {
			return nil, fmt.Errorf("tlsnet: issuing intermediate: %w", err)
		}
		w.intermediates[r.Name] = inter
	}

	// Draw each leaf's issuer, expiry, port and sighting from src, leaf by
	// leaf, then issue every leaf in one batch so signing spreads over all
	// cores; issuance draws nothing from src. Chain[0], the leaf itself, is
	// filled in from the batch.
	pw := make([]float64, len(ports))
	for j, p := range ports {
		pw[j] = p.weight
	}
	w.leaves = make([]Leaf, cfg.NumLeaves)
	reqs := make([]certgen.LeafRequest, cfg.NumLeaves)
	for i := range reqs {
		var (
			issuer   *certgen.Issued
			chain    []*x509.Certificate
			rootName string
		)
		if src.Float64() < cfg.InternetShare {
			ca := w.internetRoots[src.Intn(len(w.internetRoots))]
			issuer = ca
			chain = []*x509.Certificate{nil, ca.Cert}
			rootName = ca.Cert.Subject.CommonName
		} else {
			r := issuing[zipf.Sample(src)]
			rootName = r.Name
			if inter, ok := w.intermediates[r.Name]; ok {
				issuer = inter
				chain = []*x509.Certificate{nil, inter.Cert, r.Issued.Cert}
			} else {
				issuer = r.Issued
				chain = []*x509.Certificate{nil, r.Issued.Cert}
			}
		}
		opts := []certgen.Option{
			certgen.WithKeyName("tlsnet-shared-leaf-key"),
			certgen.WithOrganization("Server Operator"),
		}
		expired := src.Float64() < cfg.ExpiredFraction
		if expired {
			opts = append(opts, certgen.WithValidity(
				certgen.Epoch.AddDate(-3, 0, 0), certgen.Epoch.AddDate(-1, 0, 0)))
		} else {
			opts = append(opts, certgen.WithValidity(
				certgen.Epoch.AddDate(-1, 0, 0), certgen.Epoch.AddDate(2, 0, 0)))
		}
		reqs[i] = certgen.LeafRequest{Parent: issuer, CN: fmt.Sprintf("host%06d.example.net", i), Opts: opts}
		w.leaves[i] = Leaf{
			Chain:    chain,
			Port:     ports[src.PickWeighted(pw)].port,
			Expired:  expired,
			SeenAt:   certgen.Epoch.Add(time.Duration(src.Int64n(181*24)) * time.Hour),
			RootName: rootName,
		}
	}
	issued, err := gen.Leaves(reqs)
	if err != nil {
		return nil, fmt.Errorf("tlsnet: issuing leaves: %w", err)
	}
	for i, leaf := range issued {
		w.leaves[i].Chain[0] = leaf.Cert
	}
	return w, nil
}

// Leaves returns all generated leaves.
func (w *World) Leaves() []Leaf { return w.leaves }

// Universe returns the CA universe behind the world.
func (w *World) Universe() *cauniverse.Universe { return w.universe }

// Intermediate returns the G1 intermediate for a popular root, or nil.
func (w *World) Intermediate(rootName string) *certgen.Issued {
	return w.intermediates[rootName]
}
