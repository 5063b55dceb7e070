package chain

import (
	"crypto/x509"
	"time"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// NaiveVerifier is the baseline path builder for the chain-index ablation
// and the reference the verifier property tests compare against: it scans
// every pool certificate linearly when looking for an issuer and checks
// the signature of every name-matching CA. Verifier indexes candidates by
// subject and checks no signature into an issuer that cannot reach a
// trusted root; their verdicts are identical.
type NaiveVerifier struct {
	at       time.Time
	maxDepth int
	roots    map[certid.Identity]*x509.Certificate
	pool     []*x509.Certificate
}

// NewNaiveVerifier mirrors NewVerifier without building the subject index.
func NewNaiveVerifier(roots, intermediates []*x509.Certificate, at time.Time) *NaiveVerifier {
	n := &NaiveVerifier{
		at:       at,
		maxDepth: DefaultMaxDepth,
		roots:    make(map[certid.Identity]*x509.Certificate, len(roots)),
	}
	for _, r := range roots {
		id := corpus.IdentityOf(r)
		if _, dup := n.roots[id]; dup {
			continue
		}
		n.roots[id] = r
		n.pool = append(n.pool, r)
	}
	n.pool = append(n.pool, intermediates...)
	return n
}

func (n *NaiveVerifier) timeValid(c *x509.Certificate) bool {
	return !n.at.Before(c.NotBefore) && !n.at.After(c.NotAfter)
}

// Validates reports whether cert chains to any trusted root.
func (n *NaiveVerifier) Validates(cert *x509.Certificate) bool {
	if !n.timeValid(cert) {
		return false
	}
	visited := map[certid.Identity]bool{corpus.IdentityOf(cert): true}
	return n.search(cert, visited, 1)
}

func (n *NaiveVerifier) search(tip *x509.Certificate, visited map[certid.Identity]bool, depth int) bool {
	if _, ok := n.roots[corpus.IdentityOf(tip)]; ok {
		return true
	}
	if depth >= n.maxDepth {
		return false
	}
	for _, cand := range n.pool {
		if !cand.IsCA || !n.timeValid(cand) {
			continue
		}
		if string(cand.RawSubject) != string(tip.RawIssuer) {
			continue
		}
		id := corpus.IdentityOf(cand)
		if visited[id] {
			continue
		}
		if err := tip.CheckSignatureFrom(cand); err != nil {
			continue
		}
		visited[id] = true
		if n.search(cand, visited, depth+1) {
			return true
		}
		delete(visited, id)
	}
	return false
}
