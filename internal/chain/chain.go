// Package chain implements X.509 certification path building and validation
// over an explicit certificate pool, with per-root attribution.
//
// The standard library's x509.Verify answers "is there a chain"; the paper's
// analyses also need "which roots can this certificate chain to" — the
// per-root validation counts behind Table 3/4 and the ECDF of Figure 3. The
// Verifier here builds every path from a candidate certificate up to any
// trusted root, crossing intermediates, checking signatures, CA basic
// constraints, and validity at a fixed reference time.
//
// The verifier speaks corpus.Ref internally: every pool member is interned
// once in a content-addressed corpus, so identities and fingerprints are
// table lookups, signature checks are memoized on the corpus by a pair of
// uint32 handles (so every verifier over one corpus checks an edge once),
// and the pool key is derived from precomputed content digests instead of
// re-fingerprinting the pool.
//
// Path building checks no signature into an issuer that cannot reach a
// trusted root by issuer-name links, which construction works out once:
// leaves that chain only to roots outside the store cost no verification.
package chain

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/rootstore"
)

// DefaultMaxDepth bounds path length (leaf..root inclusive). Real-world web
// PKI chains are ≤ 5; the bound exists to terminate on pathological pools.
const DefaultMaxDepth = 8

// ErrNoChain is returned when no path to a trusted root exists.
var ErrNoChain = errors.New("chain: certificate does not chain to a trusted root")

// Verifier builds and validates certification paths against a set of trusted
// roots and optional intermediates. Construct with NewVerifier,
// NewVerifierIn or NewVerifierFromStore; the zero value is not usable.
type Verifier struct {
	at       time.Time
	maxDepth int
	c        *corpus.Corpus

	// roots is a flat copy of the trusted store taken at construction.
	// isRoot asks its identity-handle index, so a later change to the
	// caller's store cannot change what the verifier answers.
	roots rootstore.Store
	// pool is every issuer candidate — the store's members in store
	// order, then the intermediates in the order given, exact duplicates
	// dropped — sorted by subject key, equal keys in that candidate order.
	pool []candidate
	// poolSum is the XOR of the pool members' content digests (the roots'
	// share is the store's ContentDigest): with it, PoolKey needs no sort
	// or hash over per-certificate fingerprints.
	poolSum corpus.Digest

	// poolHash is the content hash behind PoolKey, computed once: the pool
	// is immutable after construction, only maxDepth can change later.
	poolOnce sync.Once
	poolHash string
}

// candidate is one issuer-pool slot: the member's precomputed subject key
// (corpus.Entry.SubjectKey), its handle, and its position in candidate
// order, which breaks key ties. Once the pool is built, pos's top bit
// (liveBit) marks a candidate that can reach a trusted root; nothing reads
// the order after construction, and a candidate stays 16 bytes.
type candidate struct {
	key uint64
	ref corpus.Ref
	pos uint32
}

const liveBit = 1 << 31

func (c candidate) live() bool { return c.pos&liveBit != 0 }

// NewVerifier returns a Verifier trusting roots, able to cross the given
// intermediates, evaluating validity at the instant at. Certificates are
// interned in the process-wide shared corpus.
func NewVerifier(roots, intermediates []*x509.Certificate, at time.Time) *Verifier {
	return NewVerifierIn(corpus.Shared(), roots, intermediates, at)
}

// NewVerifierIn is NewVerifier interning into an explicit corpus. The
// roots are gathered into a store, so equivalent roots count once (the
// first instance wins).
func NewVerifierIn(c *corpus.Corpus, roots, intermediates []*x509.Certificate, at time.Time) *Verifier {
	s := rootstore.NewSized("", c, len(roots))
	s.AddAll(roots)
	return NewVerifierFromStore(s, c.InternChain(intermediates), at)
}

// NewVerifierFromStore builds a Verifier whose trusted roots are exactly the
// store's membership, reusing the store's interned handles, its identity
// index and its incrementally-maintained content digest — no certificate is
// re-interned, re-fingerprinted or re-hashed. The intermediates must be
// handles in the store's corpus.
func NewVerifierFromStore(s *rootstore.Store, intermediates []corpus.Ref, at time.Time) *Verifier {
	c := s.Corpus()
	v := &Verifier{
		at:       at,
		maxDepth: DefaultMaxDepth,
		c:        c,
		roots:    *s.Clone(s.Name()),
		poolSum:  s.ContentDigest(),
	}
	pool := make([]candidate, 0, s.Len()+len(intermediates))
	for i := range s.Len() {
		ref := s.RefAt(i)
		pool = append(pool, candidate{c.Entry(ref).SubjectKey, ref, uint32(len(pool))})
	}
	for _, ref := range intermediates {
		pool = append(pool, candidate{c.Entry(ref).SubjectKey, ref, uint32(len(pool))})
	}
	slices.SortFunc(pool, func(a, b candidate) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	// Drop exact duplicates — an intermediate given twice, or one the store
	// already holds — keeping the first in candidate order. Duplicates
	// share a key, so each is found in its key run. Store members are
	// distinct identities, hence distinct refs, and already in poolSum.
	kept := pool[:0]
	for _, cand := range pool {
		dup := false
		for j := len(kept) - 1; j >= 0 && kept[j].key == cand.key; j-- {
			if kept[j].ref == cand.ref {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if int(cand.pos) >= s.Len() {
			v.poolSum.XOR(c.Entry(cand.ref).Digest)
		}
		// A trusted root is live: a store member, or an intermediate
		// sharing a root's identity.
		if int(cand.pos) < s.Len() || v.isRoot(cand.ref) {
			cand.pos |= liveBit
		}
		kept = append(kept, cand)
	}
	v.pool = kept
	v.markLive()
	return v
}

// markLive extends liveBit from the trusted roots to a fixed point: a
// candidate whose issuer is the subject of a live CA candidate is live.
// It ignores signatures, validity, depth and the visited set, so every
// path extend can build crosses live candidates only.
func (v *Verifier) markLive() {
	pool := v.pool
	for changed := true; changed; {
		changed = false
		for i := range pool {
			if pool[i].live() {
				continue
			}
			e := v.c.Entry(pool[i].ref)
			for _, issuer := range v.keyRun(e.IssuerKey) {
				if issuer.live() && v.names(issuer.ref, e) {
					pool[i].pos |= liveBit
					changed = true
					break
				}
			}
		}
	}
}

// SetMaxDepth overrides the path-length bound. Values < 2 are ignored.
func (v *Verifier) SetMaxDepth(d int) {
	if d >= 2 {
		v.maxDepth = d
	}
}

// At returns the reference instant used for validity checks.
func (v *Verifier) At() time.Time { return v.at }

// Corpus returns the intern table the verifier's refs resolve against.
func (v *Verifier) Corpus() *corpus.Corpus { return v.c }

// timeValid reports whether c's validity window covers the reference time.
func (v *Verifier) timeValid(c *x509.Certificate) bool {
	return !v.at.Before(c.NotBefore) && !v.at.After(c.NotAfter)
}

// isRoot reports whether ref is one of the trusted roots (by identity).
func (v *Verifier) isRoot(ref corpus.Ref) bool {
	return v.roots.ContainsHandle(v.c.IdentityRefOf(ref))
}

// keyRun returns the pool slots whose subject key is key, in candidate
// order: a binary search on the precomputed keys.
func (v *Verifier) keyRun(key uint64) []candidate {
	i, _ := slices.BinarySearchFunc(v.pool, key, func(cand candidate, key uint64) int {
		return cmp.Compare(cand.key, key)
	})
	j := i
	for j < len(v.pool) && v.pool[j].key == key {
		j++
	}
	return v.pool[i:j]
}

// names reports whether issuer is a CA whose raw subject is e's issuer:
// the link a path may cross, before any signature is checked.
func (v *Verifier) names(issuer corpus.Ref, e *corpus.Entry) bool {
	cert := v.c.Cert(issuer)
	return cert.IsCA && bytes.Equal(cert.RawSubject, e.Cert.RawIssuer)
}

// candidateIssuers returns the pool refs that are live, name ref's issuer
// and verify ref's signature, in candidate order. A dead candidate is
// skipped before its signature is checked: no path through it validates.
// The signature check is the corpus's memoized one: it depends on the two
// certificates alone, never on this verifier's roots, instant or depth.
func (v *Verifier) candidateIssuers(ref corpus.Ref) []corpus.Ref {
	e := v.c.Entry(ref)
	var out []corpus.Ref
	for _, cand := range v.keyRun(e.IssuerKey) {
		if cand.live() && v.names(cand.ref, e) && v.c.CheckSignature(ref, cand.ref) {
			out = append(out, cand.ref)
		}
	}
	return out
}

// Chains returns every distinct valid path from cert to a trusted root, each
// ordered leaf-first. A certificate that is itself a trusted root yields the
// single-element chain. The result is nil when no path exists.
func (v *Verifier) Chains(cert *x509.Certificate) [][]*x509.Certificate {
	refChains := v.chainRefs(v.c.InternCert(cert))
	if refChains == nil {
		return nil
	}
	chains := make([][]*x509.Certificate, len(refChains))
	for i, refs := range refChains {
		chains[i] = v.c.Certs(refs)
	}
	return chains
}

// chainRefs is Chains over handles.
func (v *Verifier) chainRefs(ref corpus.Ref) [][]corpus.Ref {
	e := v.c.Entry(ref)
	if e == nil || !v.timeValid(e.Cert) {
		return nil
	}
	var chains [][]corpus.Ref
	path := append(make([]corpus.Ref, 0, v.maxDepth), ref)
	ids := append(make([]corpus.IdentityRef, 0, v.maxDepth), e.IdentityRef)
	v.extend(path, ids, &chains)
	return chains
}

// extend grows path by every valid issuer of its tip. ids holds the
// identity handles of the path's members: an identity already on the path
// is not crossed again, and the path never outgrows maxDepth, so a scan
// of ids is the whole visited set.
func (v *Verifier) extend(path []corpus.Ref, ids []corpus.IdentityRef, out *[][]corpus.Ref) {
	if v.isRoot(path[len(path)-1]) {
		*out = append(*out, slices.Clone(path))
		// A root may itself be cross-signed by another root; we stop here —
		// a trusted anchor terminates the path, matching browser behaviour.
		return
	}
	if len(path) >= v.maxDepth {
		return
	}
	for _, issuer := range v.candidateIssuers(path[len(path)-1]) {
		e := v.c.Entry(issuer)
		if slices.Contains(ids, e.IdentityRef) {
			continue
		}
		if !v.timeValid(e.Cert) {
			continue
		}
		v.extend(append(path, issuer), append(ids, e.IdentityRef), out)
	}
}

// Verify returns the first valid chain for cert, or ErrNoChain.
func (v *Verifier) Verify(cert *x509.Certificate) ([]*x509.Certificate, error) {
	chains := v.Chains(cert)
	if len(chains) == 0 {
		return nil, ErrNoChain
	}
	return chains[0], nil
}

// Validates reports whether cert chains to any trusted root.
func (v *Verifier) Validates(cert *x509.Certificate) bool {
	return len(v.chainRefs(v.c.InternCert(cert))) > 0
}

// ValidatingRoots returns the distinct trusted roots reachable from cert,
// in discovery order. This is the primitive behind the paper's per-root
// validation counting: a leaf contributes one count to each root that can
// validate it.
func (v *Verifier) ValidatingRoots(cert *x509.Certificate) []*x509.Certificate {
	return v.c.Certs(v.validatingRootRefs(v.c.InternCert(cert)))
}

// validatingRootRefs returns the refs of the distinct trusted roots
// reachable from ref, in discovery order.
func (v *Verifier) validatingRootRefs(ref corpus.Ref) []corpus.Ref {
	var out []corpus.Ref
	var seen []corpus.IdentityRef
	for _, chain := range v.chainRefs(ref) {
		root := chain[len(chain)-1]
		if h := v.c.IdentityRefOf(root); !slices.Contains(seen, h) {
			seen = append(seen, h)
			out = append(out, root)
		}
	}
	return out
}

// ValidatingRootIdentities returns the identities of the distinct trusted
// roots reachable from cert, in discovery order. This is the value the
// chain-validation Cache memoizes: identities (not handles) so entries stay
// meaningful to callers that compare against store identities.
func (v *Verifier) ValidatingRootIdentities(cert *x509.Certificate) []certid.Identity {
	return v.identitiesOf(v.validatingRootRefs(v.c.InternCert(cert)))
}

// ValidatingRootIdentitiesRef is ValidatingRootIdentities for an
// already-interned leaf.
func (v *Verifier) ValidatingRootIdentitiesRef(ref corpus.Ref) []certid.Identity {
	return v.identitiesOf(v.validatingRootRefs(ref))
}

func (v *Verifier) identitiesOf(refs []corpus.Ref) []certid.Identity {
	if len(refs) == 0 {
		return nil
	}
	out := make([]certid.Identity, len(refs))
	for i, r := range refs {
		out[i] = v.c.Entry(r).Identity
	}
	return out
}

// PoolKey returns a compact fingerprint of the verifier's complete trust
// configuration: the XOR of every pool member's content digest (inherently
// order-independent), which of them are trusted roots, the corpus the
// handles resolve against, the reference instant, and the path-length
// bound. Two verifiers with equal PoolKeys return identical validation
// outcomes for every certificate, which is what makes the key safe to
// share cache entries under.
func (v *Verifier) PoolKey() string {
	v.poolOnce.Do(func() {
		material := "corpus:" + strconv.FormatUint(v.c.ID(), 10) +
			"\nroot:" + v.roots.ContentKey() +
			"\npool:" + v.poolSum.Hex() +
			"\nat:" + strconv.FormatInt(v.at.UnixNano(), 10)
		sum := sha256.Sum256([]byte(material))
		v.poolHash = hex.EncodeToString(sum[:])
	})
	// maxDepth is appended at call time because SetMaxDepth may change it
	// after construction; depth changes the reachable-root set.
	return v.poolHash + "/d" + strconv.Itoa(v.maxDepth)
}

// ErrHostMismatch is returned by VerifyForHost when the leaf does not cover
// the requested host.
var ErrHostMismatch = errors.New("chain: certificate does not cover the requested host")

// ErrNameConstraint is returned by VerifyForHost when every path crosses a
// CA whose name constraints exclude the host.
var ErrNameConstraint = errors.New("chain: host excluded by a CA name constraint")

// CanonicalHost returns host in the form the hostname checks compare on:
// lowercased, with a single trailing dot (the DNS root label) trimmed.
// x509.Certificate.VerifyHostname applies this normalization internally;
// applying it here too keeps the name-constraint check judging the same
// spelling, so the two layers can never disagree about which host they saw.
func CanonicalHost(host string) string {
	host = strings.ToLower(host)
	if n := len(host); n > 0 && host[n-1] == '.' {
		host = host[:n-1]
	}
	return host
}

// LeafCoversHost reports whether the leaf certificate covers host (judging
// the canonical form). It is the hostname layer of VerifyForHost on its
// own, exposed so the trust-evaluation engine can score the hostname
// dimension independently of chain building.
func LeafCoversHost(cert *x509.Certificate, host string) error {
	return cert.VerifyHostname(CanonicalHost(host))
}

// VerifyForHost verifies cert for use as a TLS server certificate for host:
// the leaf must cover host, and at least one path to a trusted root must
// cross only CAs whose (permitted-subtree) name constraints allow it. This
// is the check that makes a name-constrained operator CA safe to ship in
// firmware: it can anchor its own services but not gmail.com.
//
// Error precedence is fixed: a leaf that does not cover the host reports
// ErrHostMismatch even when name constraints would also exclude it — the
// leaf check is the first a client performs, and both checks judge the
// canonical host so neither can pass a spelling the other rejects. When
// several valid paths permit the host, the winner is canonical — shortest
// path first, ties broken by comparing member content digests — and does
// not depend on pool construction order.
func (v *Verifier) VerifyForHost(cert *x509.Certificate, host string) ([]*x509.Certificate, error) {
	h := CanonicalHost(host)
	if err := cert.VerifyHostname(h); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHostMismatch, err)
	}
	refChains := v.chainRefs(v.c.InternCert(cert))
	if len(refChains) == 0 {
		return nil, ErrNoChain
	}
	var best []corpus.Ref
	for _, refs := range refChains {
		if !v.pathPermitsHost(refs, h) {
			continue
		}
		if best == nil || v.pathLess(refs, best) {
			best = refs
		}
	}
	if best == nil {
		return nil, ErrNameConstraint
	}
	return v.c.Certs(best), nil
}

// pathLess orders candidate paths canonically: shorter first, then by
// lexicographic comparison of member content digests. Content digests are
// stable across processes and pool insertion orders, unlike the DFS
// discovery order chainRefs yields.
func (v *Verifier) pathLess(a, b []corpus.Ref) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		da, db := v.c.Entry(a[i]).Digest, v.c.Entry(b[i]).Digest
		if c := bytes.Compare(da[:], db[:]); c != 0 {
			return c < 0
		}
	}
	return false
}

// pathPermitsHost checks every CA's permitted DNS subtrees against the
// canonical host.
func (v *Verifier) pathPermitsHost(path []corpus.Ref, host string) bool {
	for _, ref := range path[1:] {
		ca := v.c.Cert(ref)
		if len(ca.PermittedDNSDomains) == 0 {
			continue
		}
		ok := false
		for _, domain := range ca.PermittedDNSDomains {
			if hostInDomain(host, domain) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// hostInDomain implements RFC 5280 DNS subtree matching: the host equals
// the domain or ends with "."+domain (a leading dot on the constraint
// anchors subdomains only). The host must already be canonical; the
// constraint is lowercased here since certificates may carry any casing.
func hostInDomain(host, domain string) bool {
	domain = strings.ToLower(domain)
	if domain == "" {
		return true
	}
	if domain[0] == '.' {
		return len(host) > len(domain) && host[len(host)-len(domain):] == domain
	}
	if host == domain {
		return true
	}
	suffix := "." + domain
	return len(host) > len(suffix) && host[len(host)-len(suffix):] == suffix
}

// IsSelfSigned reports whether c is self-issued and self-signature-valid.
func IsSelfSigned(c *x509.Certificate) bool {
	if string(c.RawSubject) != string(c.RawIssuer) {
		return false
	}
	return c.CheckSignatureFrom(c) == nil
}
