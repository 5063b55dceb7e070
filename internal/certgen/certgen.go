// Package certgen is the X.509 generation substrate for the reproduction.
// It issues real, verifiable certificates — self-signed roots, intermediates,
// and leaves — whose keys, serials and signatures are derived from a seed,
// so every certificate's DER is a pure function of that seed.
//
// All validity periods are anchored at a fixed epoch (the paper's measurement
// window, November 2013) rather than the wall clock, so chain validation
// results never depend on when the code runs.
package certgen

import (
	"context"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rsa"
	"crypto/x509"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"time"

	"tangledmass/internal/parallel"
)

// Epoch is the fixed reference instant for all validity decisions: the start
// of the paper's Netalyzr collection window (November 2013). Certificates are
// valid at Epoch unless explicitly issued as expired.
var Epoch = time.Date(2013, time.November, 1, 0, 0, 0, 0, time.UTC)

// Issued bundles a certificate with its private key so it can act as an
// issuer for further certificates or as a TLS credential.
type Issued struct {
	Cert *x509.Certificate
	Key  crypto.Signer
}

// Generator deterministically issues certificates. The zero value is not
// usable; construct with NewGenerator. It is safe for concurrent use: mu
// guards the serial counter and the key cache, and signing runs outside it.
type Generator struct {
	seed   int64
	mu     sync.Mutex
	serial int64
	keys   map[string]crypto.Signer
}

// NewGenerator returns a Generator whose entire output is a pure function of
// seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{seed: seed, keys: make(map[string]crypto.Signer)}
}

type options struct {
	org          []string
	country      []string
	notBefore    time.Time
	notAfter     time.Time
	rsaBits      int
	keyName      string
	dnsNames     []string
	ipAddresses  []net.IP
	isCA         bool
	permittedDNS []string
}

// Option customizes a certificate to be issued.
type Option func(*options)

// WithOrganization sets the subject O attribute.
func WithOrganization(org ...string) Option {
	return func(o *options) { o.org = org }
}

// WithCountry sets the subject C attribute.
func WithCountry(c ...string) Option {
	return func(o *options) { o.country = c }
}

// WithValidity overrides the validity window. The defaults are
// Epoch-5y .. Epoch+10y.
func WithValidity(notBefore, notAfter time.Time) Option {
	return func(o *options) { o.notBefore, o.notAfter = notBefore, notAfter }
}

// Expired issues the certificate already expired at Epoch, like the
// Autoridad de Certificacion Firmaprofesional root that expired in Oct 2013
// yet still ships in AOSP 4.4 (§2).
func Expired() Option {
	return func(o *options) {
		o.notBefore = Epoch.AddDate(-10, 0, 0)
		o.notAfter = Epoch.AddDate(0, 0, -7)
	}
}

// WithRSA uses an RSA key of the given bit size instead of the default
// ECDSA P-256. Paper-identity tests use this to exercise the RSA-modulus
// identity path. Sizes below 2048 bits are acceptable here because the keys
// secure nothing; they exist to make X.509 mechanics real.
func WithRSA(bits int) Option {
	return func(o *options) { o.rsaBits = bits }
}

// WithKeyName overrides the key-cache name. Certificates sharing a key name
// share a key pair; Reissue relies on this to model a CA re-issuing its root
// with the same subject and key but a new validity period.
func WithKeyName(name string) Option {
	return func(o *options) { o.keyName = name }
}

// WithDNSNames sets leaf SAN dNSName entries.
func WithDNSNames(names ...string) Option {
	return func(o *options) { o.dnsNames = names }
}

// WithIPAddresses sets leaf SAN iPAddress entries, for services reached by
// literal address — hostname verification then matches the IP exactly,
// never via wildcards.
func WithIPAddresses(ips ...net.IP) Option {
	return func(o *options) { o.ipAddresses = ips }
}

// WithNameConstraints restricts a CA to issuing for the given DNS domains
// (critical permitted-subtree name constraints). This is the modern
// mitigation for the paper's vendor/operator additions: a carrier CA
// constrained to its own domains cannot mint certificates for gmail.com.
func WithNameConstraints(permittedDNS ...string) Option {
	return func(o *options) { o.permittedDNS = permittedDNS }
}

func (g *Generator) nextSerial() *big.Int {
	g.serial++
	return big.NewInt(g.serial)
}

// keyFor returns (creating if needed) the deterministic key for name.
func (g *Generator) keyFor(name string, rsaBits int) (crypto.Signer, error) {
	kind := "ecdsa"
	if rsaBits > 0 {
		kind = fmt.Sprintf("rsa%d", rsaBits)
	}
	cacheKey := kind + "/" + name
	if k, ok := g.keys[cacheKey]; ok {
		return k, nil
	}
	r := newDRBG(g.seed, cacheKey)
	var (
		key crypto.Signer
		err error
	)
	if rsaBits > 0 {
		key, err = deterministicRSAKey(r, rsaBits)
	} else {
		key, err = deterministicECDSAKey(r)
	}
	if err != nil {
		return nil, fmt.Errorf("certgen: generating %s key for %q: %w", kind, name, err)
	}
	g.keys[cacheKey] = key
	return key, nil
}

// deterministicECDSAKey derives a P-256 key pair whose private scalar comes
// straight from the deterministic stream. Unlike ecdsa.GenerateKey — which
// deliberately mixes nondeterminism even when handed a custom reader — this
// makes the key, and therefore the certificate's identity (subject + key),
// a pure function of the generator seed across runs.
func deterministicECDSAKey(r io.Reader) (*ecdsa.PrivateKey, error) {
	curve := elliptic.P256()
	buf := make([]byte, 32)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		k := new(big.Int).SetBytes(buf)
		if k.Sign() <= 0 || k.Cmp(p256N) >= 0 {
			continue
		}
		priv := &ecdsa.PrivateKey{PublicKey: ecdsa.PublicKey{Curve: curve}, D: k}
		priv.X, priv.Y = curve.ScalarBaseMult(k.Bytes())
		return priv, nil
	}
}

// deterministicPrime finds a prime of exactly the given bit length using
// candidates drawn from the deterministic stream. crypto/rand.Prime cannot
// be used here: since Go 1.22 it deliberately consumes its reader
// nondeterministically.
func deterministicPrime(r io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, fmt.Errorf("certgen: prime size %d too small", bits)
	}
	buf := make([]byte, (bits+7)/8)
	mask := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	mask.Sub(mask, big.NewInt(1))
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		p := new(big.Int).SetBytes(buf)
		p.And(p, mask)
		p.SetBit(p, bits-1, 1) // exact bit length
		p.SetBit(p, bits-2, 1) // product of two such primes has 2*bits bits
		p.SetBit(p, 0, 1)      // odd
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// deterministicRSAKey builds an RSA key whose primes come from the
// deterministic stream, for the same reason as deterministicECDSAKey:
// rsa.GenerateKey injects nondeterminism even with a custom reader, which
// would make the universe's RSA root identities differ across processes.
func deterministicRSAKey(r io.Reader, bits int) (*rsa.PrivateKey, error) {
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		p, err := deterministicPrime(r, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := deterministicPrime(r, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		totient := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, totient)
		if d == nil {
			continue
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: int(e.Int64())},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		if err := key.Validate(); err != nil {
			continue
		}
		return key, nil
	}
}

func applyOptions(opts []Option) options {
	o := options{
		notBefore: Epoch.AddDate(-5, 0, 0),
		notAfter:  Epoch.AddDate(10, 0, 0),
	}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// pending is one certificate whose generator state — key, serial and
// options — is fixed, waiting to be encoded and signed.
type pending struct {
	cn        string
	o         options
	serial    *big.Int
	parent    *x509.Certificate // the issuer; nil for a self-signed certificate
	key       crypto.Signer
	signerKey crypto.Signer
	rand      io.Reader
}

// prepareLocked resolves one certificate: key lookup or derivation and the
// next serial. parent == nil means self-signed. Callers hold g.mu.
func (g *Generator) prepareLocked(cn string, parent *Issued, o options) (pending, error) {
	keyName := o.keyName
	if keyName == "" {
		keyName = cn
	}
	key, err := g.keyFor(keyName, o.rsaBits)
	if err != nil {
		return pending{}, err
	}
	p := pending{cn: cn, o: o, serial: g.nextSerial(), key: key, signerKey: key, rand: newDRBG(g.seed, "sig/"+cn)}
	if parent != nil {
		p.parent, p.signerKey = parent.Cert, parent.Key
	}
	return p, nil
}

// issue prepares one certificate under g.mu and signs it after releasing
// the lock.
func (g *Generator) issue(cn string, parent *Issued, o options) (*Issued, error) {
	g.mu.Lock()
	p, err := g.prepareLocked(cn, parent, o)
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := checkSigners([]pending{p}); err != nil {
		return nil, err
	}
	return p.sign()
}

// SelfSignedCA issues a self-signed root CA certificate with the given
// common name.
func (g *Generator) SelfSignedCA(cn string, opts ...Option) (*Issued, error) {
	o := applyOptions(opts)
	o.isCA = true
	return g.issue(cn, nil, o)
}

// Intermediate issues an intermediate CA certificate signed by parent.
func (g *Generator) Intermediate(parent *Issued, cn string, opts ...Option) (*Issued, error) {
	o := applyOptions(opts)
	o.isCA = true
	return g.issue(cn, parent, o)
}

// leafOptions resolves the options of an end-entity certificate. If no DNS
// names or IP addresses are supplied, cn is used as the sole SAN.
func leafOptions(cn string, opts []Option) options {
	o := applyOptions(opts)
	o.isCA = false
	if len(o.dnsNames) == 0 && len(o.ipAddresses) == 0 {
		o.dnsNames = []string{cn}
	}
	return o
}

// Leaf issues an end-entity certificate signed by parent. If no DNS names
// are supplied, cn is used as the sole SAN.
func (g *Generator) Leaf(parent *Issued, cn string, opts ...Option) (*Issued, error) {
	return g.issue(cn, parent, leafOptions(cn, opts))
}

// LeafRequest holds the arguments of one Leaf call, for Leaves.
type LeafRequest struct {
	Parent *Issued
	CN     string
	Opts   []Option
}

// Leaves issues one end-entity certificate per request and returns them in
// request order. It prepares every request, in order, under one
// acquisition of g.mu, so it assigns the same keys and serials as that
// many Leaf calls would; it then checks each distinct signer once and
// signs the batch in parallel. If any request fails, Leaves returns no
// certificates and the error of the lowest-indexed failure, a signer's
// failure before any signing failure; serials drawn before the failure
// stay consumed, as after a failed Leaf.
func (g *Generator) Leaves(reqs []LeafRequest) ([]*Issued, error) {
	ps := make([]pending, len(reqs))
	g.mu.Lock()
	for i, r := range reqs {
		p, err := g.prepareLocked(r.CN, r.Parent, leafOptions(r.CN, r.Opts))
		if err != nil {
			g.mu.Unlock()
			return nil, err
		}
		ps[i] = p
	}
	g.mu.Unlock()
	if err := checkSigners(ps); err != nil {
		return nil, err
	}
	return parallel.Map(context.Background(), len(ps), func(_ context.Context, i int) (*Issued, error) {
		return ps[i].sign()
	})
}

// Reissue produces a certificate with the same subject and key as orig but a
// fresh serial and, typically, a different validity period (pass
// WithValidity). The result is byte-distinct from orig yet equivalent under
// the paper's identity — exactly the "only the expiration date changed" case
// described in §4.2.
func (g *Generator) Reissue(orig *Issued, opts ...Option) (*Issued, error) {
	o := applyOptions(opts)
	o.isCA = orig.Cert.IsCA
	o.keyName = orig.Cert.Subject.CommonName
	o.org = orig.Cert.Subject.Organization
	o.country = orig.Cert.Subject.Country
	// Force the cached key type to match the original.
	if _, isRSA := orig.Key.Public().(*rsa.PublicKey); isRSA && o.rsaBits == 0 {
		pub := orig.Key.Public().(*rsa.PublicKey)
		o.rsaBits = pub.N.BitLen()
	}
	return g.issue(orig.Cert.Subject.CommonName, nil, o)
}
