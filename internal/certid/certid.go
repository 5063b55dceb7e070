// Package certid implements certificate identity and equivalence as used in
// the paper's methodology (§4): two root certificates are "equivalent" when
// their subject and key material match, even when the certificates are not
// byte-identical (e.g. a CA re-issues its root with a new expiration date).
//
// The paper establishes identity from the RSA key modulus plus the subject
// string. Our CA universe generates ECDSA roots for speed, so the key
// identity generalizes: for RSA keys it is the modulus, for any other key it
// is a hash of the SubjectPublicKeyInfo. The predicate is unchanged — same
// subject, same public key.
package certid

import (
	"crypto/ecdsa"
	"crypto/md5"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// KeyID identifies a public key. For RSA keys it is the hex-encoded modulus
// prefixed "rsa:"; for other keys it is the hex SHA-256 of the DER-encoded
// SubjectPublicKeyInfo prefixed with the key algorithm.
type KeyID string

// KeyIdentity computes the KeyID for a certificate's public key.
func KeyIdentity(cert *x509.Certificate) KeyID {
	switch pub := cert.PublicKey.(type) {
	case *rsa.PublicKey:
		return KeyID("rsa:" + hex.EncodeToString(pub.N.Bytes()))
	case *ecdsa.PublicKey:
		sum := sha256.Sum256(cert.RawSubjectPublicKeyInfo)
		return KeyID("ecdsa:" + hex.EncodeToString(sum[:]))
	default:
		sum := sha256.Sum256(cert.RawSubjectPublicKeyInfo)
		return KeyID(fmt.Sprintf("%T:%s", pub, hex.EncodeToString(sum[:])))
	}
}

// Identity is the paper's certificate identity: the subject distinguished
// name plus the public-key identity. Two certificates with equal Identity
// can validate the same child certificates and are treated as the same root.
type Identity struct {
	Subject string
	Key     KeyID
}

// String renders the identity compactly for diagnostics.
func (id Identity) String() string {
	k := string(id.Key)
	if len(k) > 24 {
		k = k[:24] + "…"
	}
	return id.Subject + " [" + k + "]"
}

// IdentityOf computes the Identity of a certificate from scratch. This is
// the pure definition; hot paths go through the content-addressed corpus
// (internal/corpus), which computes each certificate's identity exactly
// once at interning time and answers later lookups from the table.
func IdentityOf(cert *x509.Certificate) Identity {
	return Identity{Subject: SubjectString(cert), Key: KeyIdentity(cert)}
}

// Equivalent reports whether two certificates are equivalent in the paper's
// sense: same subject and same public key, regardless of validity period,
// serial number, or signature bytes.
func Equivalent(a, b *x509.Certificate) bool {
	return IdentityOf(a) == IdentityOf(b)
}

// SubjectString returns the RFC 2253 string form of the certificate subject.
// Android versions format subject information differently (§4.1); using one
// canonical renderer on parsed names sidesteps that problem.
func SubjectString(cert *x509.Certificate) string {
	return cert.Subject.String()
}

// SHA1Fingerprint returns the hex SHA-1 of the certificate's DER encoding.
// This is the "certificate signature" identity Netalyzr uses for uniqueness:
// byte-level identity, stricter than Equivalent.
func SHA1Fingerprint(cert *x509.Certificate) string {
	sum := sha1.Sum(cert.Raw)
	return hex.EncodeToString(sum[:])
}

// SHA256Fingerprint returns the hex SHA-256 of the certificate's DER encoding.
func SHA256Fingerprint(cert *x509.Certificate) string {
	sum := sha256.Sum256(cert.Raw)
	return hex.EncodeToString(sum[:])
}

// SubjectHash32 returns a 32-bit hash of the certificate subject in the style
// of OpenSSL's X509_NAME_hash_old (MD5 over the DER-encoded subject name,
// first four bytes interpreted little-endian). Android names root-store files
// <hash>.N with this value, and Figure 2 of the paper labels each certificate
// with it.
func SubjectHash32(cert *x509.Certificate) uint32 {
	sum := md5.Sum(cert.RawSubject)
	return binary.LittleEndian.Uint32(sum[:4])
}

// SubjectHashString returns SubjectHash32 as the 8-hex-digit string used in
// Android cacerts file names and in the paper's Figure 2 labels.
func SubjectHashString(cert *x509.Certificate) string {
	return FormatSubjectHash(SubjectHash32(cert))
}

// FormatSubjectHash renders a SubjectHash32 value as SubjectHashString
// does, for callers holding the precomputed hash (corpus entries).
func FormatSubjectHash(h uint32) string {
	var raw [4]byte
	var out [8]byte
	binary.BigEndian.PutUint32(raw[:], h)
	hex.Encode(out[:], raw[:])
	return string(out[:])
}
