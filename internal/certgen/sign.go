package certgen

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"strings"
	"time"
)

// oid returns the DER encoding of an OBJECT IDENTIFIER. Marshal fails
// only on fewer than two arcs or a bad first arc, never on those below.
func oid(arcs ...int) []byte {
	b, _ := asn1.Marshal(asn1.ObjectIdentifier(arcs))
	return b
}

var (
	oidCountry, oidOrganization, oidCommonName = oid(2, 5, 4, 6), oid(2, 5, 4, 10), oid(2, 5, 4, 3)
	oidKeyUsage, oidExtKeyUsage                = oid(2, 5, 29, 15), oid(2, 5, 29, 37)
	oidBasicConstraints, oidNameConstraints    = oid(2, 5, 29, 19), oid(2, 5, 29, 30)
	oidSubjectKeyID, oidAuthorityKeyID         = oid(2, 5, 29, 14), oid(2, 5, 29, 35)
	oidSubjectAltName                          = oid(2, 5, 29, 17)

	// AlgorithmIdentifiers: ecdsa-with-SHA256 has no parameters, the RSA
	// ones a NULL.
	null               = []byte{0x05, 0}
	algECDSAWithSHA256 = seq(oid(1, 2, 840, 10045, 4, 3, 2))
	algSHA256WithRSA   = seq(oid(1, 2, 840, 113549, 1, 1, 11), null)
	algECPublicKeyP256 = seq(oid(1, 2, 840, 10045, 2, 1), oid(1, 2, 840, 10045, 3, 1, 7))
	algRSAEncryption   = seq(oid(1, 2, 840, 113549, 1, 1, 1), null)

	version3  = []byte{0xa0, 3, 0x02, 1, 2} // [0] EXPLICIT INTEGER 2
	critical  = []byte{0x01, 1, 0xff}       // BOOLEAN TRUE
	emptyName = seq()
	// keyUsage BIT STRINGs without trailing zero bits: keyCertSign|cRLSign
	// for CAs, digitalSignature|keyEncipherment for leaves.
	keyUsageCA, keyUsageLeaf = []byte{0x03, 2, 1, 0x06}, []byte{0x03, 2, 5, 0xa0}
	extKeyUsageLeaf          = seq(oid(1, 3, 6, 1, 5, 5, 7, 3, 1), oid(1, 3, 6, 1, 5, 5, 7, 3, 2))

	p256N = elliptic.P256().Params().N // the order of the base point G
)

// tlv returns the DER element with the given tag whose content is the
// concatenation of parts.
func tlv(tag byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	b := append(make([]byte, 0, 10+n), tag, byte(n))
	if n >= 0x80 {
		l := big.NewInt(int64(n)).Bytes()
		b = append(append(b[:1], 0x80|byte(len(l))), l...)
	}
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func seq(parts ...[]byte) []byte { return tlv(0x30, parts...) }

// integer returns the DER INTEGER of v ≥ 0.
func integer(v *big.Int) []byte {
	b := v.Bytes()
	if len(b) == 0 || b[0]&0x80 != 0 {
		b = append([]byte{0}, b...)
	}
	return tlv(0x02, b)
}

// extension returns an X.509 Extension; crit is nil or the BOOLEAN TRUE.
func extension(id, crit, value []byte) []byte { return seq(id, crit, tlv(0x04, value)) }

// notPrintable reports whether r is outside the PrintableString alphabet.
func notPrintable(r rune) bool {
	return !strings.ContainsRune("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 '()+,-./:=?", r)
}

// name returns the DER of pkix.Name{CommonName: cn, Organization: o.org,
// Country: o.country}.ToRDNSequence(): one RDN per attribute, its values
// in DER SET OF order, each a PrintableString if it can be one and a
// UTF8String otherwise, as encoding/asn1 writes them.
func name(cn string, o options) []byte {
	var rdns [][]byte
	rdn := func(id []byte, values ...string) {
		if len(values) == 0 {
			return
		}
		atvs := make([][]byte, len(values))
		for i, v := range values {
			tag := byte(0x13) // PrintableString
			if strings.ContainsFunc(v, notPrintable) {
				tag = 0x0c // UTF8String; the re-parse in sign rejects invalid UTF-8
			}
			atvs[i] = seq(id, tlv(tag, []byte(v)))
		}
		slices.SortFunc(atvs, bytes.Compare)
		rdns = append(rdns, tlv(0x31, atvs...))
	}
	rdn(oidCountry, o.country...)
	rdn(oidOrganization, o.org...)
	if cn != "" {
		rdn(oidCommonName, cn)
	}
	return seq(rdns...)
}

// derTime encodes t as encoding/asn1 does: a UTCTime for the years
// 1950–2049, a GeneralizedTime otherwise.
func derTime(t time.Time) []byte {
	if t = t.UTC(); t.Year() < 1950 || t.Year() >= 2050 {
		return tlv(0x18, []byte(t.Format("20060102150405Z")))
	}
	return tlv(0x17, []byte(t.Format("060102150405Z")))
}

// tbs encodes p's TBSCertificate under the signature AlgorithmIdentifier
// alg, byte for byte as x509.CreateCertificate writes it for the template
// p's options describe. Input CreateCertificate would refuse — a SAN or
// name constraint that is not IA5, a name that is not UTF-8, a year past
// 9999 — fails the re-parse in sign.
func (p pending) tbs(alg []byte) []byte {
	var pubAlg, pub []byte
	switch k := p.key.Public().(type) { // keyFor derives only these two
	case *ecdsa.PublicKey:
		pubAlg, pub = algECPublicKeyP256, make([]byte, 65) // 0x04 || x || y
		pub[0] = 4
		k.X.FillBytes(pub[1:33])
		k.Y.FillBytes(pub[33:])
	case *rsa.PublicKey:
		pubAlg, pub = algRSAEncryption, x509.MarshalPKCS1PublicKey(k)
	}
	subject := name(p.cn, p.o)
	issuer := subject
	if p.parent != nil {
		issuer = p.parent.RawSubject
	}

	var exts, names [][]byte
	if p.o.isCA {
		ski := sha1.Sum(pub) // RFC 5280 §4.2.1.2, method 1
		exts = append(exts, extension(oidKeyUsage, critical, keyUsageCA),
			extension(oidBasicConstraints, critical, seq(critical)), extension(oidSubjectKeyID, nil, tlv(0x04, ski[:])))
	} else {
		exts = append(exts, extension(oidKeyUsage, critical, keyUsageLeaf),
			extension(oidExtKeyUsage, nil, extKeyUsageLeaf), extension(oidBasicConstraints, critical, seq()))
	}
	// The issuer's key is named unless the issuer and subject names match.
	if p.parent != nil && len(p.parent.SubjectKeyId) > 0 && !bytes.Equal(issuer, subject) {
		exts = append(exts, extension(oidAuthorityKeyID, nil, seq(tlv(0x80, p.parent.SubjectKeyId))))
	}
	if !p.o.isCA {
		for _, dns := range p.o.dnsNames {
			names = append(names, tlv(0x82, []byte(dns)))
		}
		for _, ip := range p.o.ipAddresses {
			if ip4 := ip.To4(); ip4 != nil {
				ip = ip4
			}
			names = append(names, tlv(0x87, ip))
		}
		var crit []byte // RFC 5280 §4.2.1.6: critical when the subject is empty
		if bytes.Equal(subject, emptyName) {
			crit = critical
		}
		exts = append(exts, extension(oidSubjectAltName, crit, seq(names...)))
	} else if len(p.o.permittedDNS) > 0 {
		for _, dns := range p.o.permittedDNS {
			names = append(names, seq(tlv(0x82, []byte(dns))))
		}
		exts = append(exts, extension(oidNameConstraints, critical, seq(tlv(0xa0, names...))))
	}
	return seq(version3, integer(p.serial), alg, issuer, seq(derTime(p.o.notBefore), derTime(p.o.notAfter)),
		subject, seq(pubAlg, tlv(0x03, []byte{0}, pub)), tlv(0xa3, seq(exts...)))
}

// sign encodes p's TBS, signs its SHA-256 digest once and checks the
// signature, then assembles the certificate and re-parses it. It makes
// x509.CreateCertificate's two checks: the signer's public key must be the
// parent's, and the signature must verify under it. sign owns its signing
// stream and only reads the signer's key, so it runs without g.mu. An
// ECDSA signer must have passed checkSigners first.
func (p pending) sign() (*Issued, error) {
	var alg []byte
	switch p.signerKey.(type) {
	case *ecdsa.PrivateKey:
		alg = algECDSAWithSHA256
	case *rsa.PrivateKey:
		alg = algSHA256WithRSA
	default:
		return nil, fmt.Errorf("certgen: issuing %q: unsupported signer %T", p.cn, p.signerKey)
	}
	if p.parent != nil && !p.signerKey.Public().(interface{ Equal(crypto.PublicKey) bool }).Equal(p.parent.PublicKey) {
		return nil, fmt.Errorf("certgen: issuing %q: the signing key does not match the parent's public key", p.cn)
	}
	tbs := p.tbs(alg)
	digest := sha256.Sum256(tbs)
	var sig []byte
	var err error
	switch k := p.signerKey.(type) {
	case *ecdsa.PrivateKey:
		sig, err = signECDSA(k.D, digest, p.rand)
	case *rsa.PrivateKey:
		if sig, err = k.Sign(p.rand, digest[:], crypto.SHA256); err == nil {
			err = checkRSA(&k.PublicKey, digest, sig)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("certgen: signing certificate %q: %w", p.cn, err)
	}
	cert, err := x509.ParseCertificate(seq(tbs, alg, tlv(0x03, []byte{0}, sig)))
	if err != nil {
		return nil, fmt.Errorf("certgen: re-parsing certificate %q: %w", p.cn, err)
	}
	return &Issued{Cert: cert, Key: p.key}, nil
}

// checkRSA checks the PKCS #1 v1.5 signature sig over digest under pub.
func checkRSA(pub *rsa.PublicKey, digest [32]byte, sig []byte) error {
	return rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], sig)
}

// checkSigners checks, once for each distinct ECDSA signer in ps, that the
// signer is a P-256 key whose public point Q is d·G for its private scalar
// d: a signature checkECDSA accepts verifies under Q only then.
func checkSigners(ps []pending) error {
	checked := make(map[*ecdsa.PrivateKey]bool)
	for _, p := range ps {
		k, ok := p.signerKey.(*ecdsa.PrivateKey)
		if !ok || checked[k] {
			continue
		}
		dG, errD := k.ECDH()
		q, errQ := k.PublicKey.ECDH()
		if k.Curve != elliptic.P256() || errD != nil || errQ != nil || !dG.PublicKey().Equal(q) {
			return fmt.Errorf("certgen: issuing %q: the signer is not a P-256 key pair with Q = d·G", p.cn)
		}
		checked[k] = true
	}
	return nil
}

// signECDSA signs digest with the P-256 private scalar d. Its nonce k =
// SHA-512(d ‖ digest ‖ 32 bytes of rand) mod n, drawn again while k, r or s
// is 0, is unique per key and message even where two messages share a
// stream (a certificate and its reissue). R = k·G is the one multiplication
// and k⁻¹ the one inversion: r = x(R) mod n, s = k⁻¹(e + r·d) mod n.
func signECDSA(d *big.Int, digest [32]byte, rand io.Reader) ([]byte, error) {
	var in [96]byte
	d.FillBytes(in[:32])
	copy(in[32:64], digest[:])
	for {
		if _, err := io.ReadFull(rand, in[64:]); err != nil {
			return nil, err
		}
		h := sha512.Sum512(in[:])
		k := new(big.Int).SetBytes(h[:])
		if k.Mod(k, p256N).Sign() == 0 {
			continue
		}
		kR, err := ecdh.P256().NewPrivateKey(k.FillBytes(make([]byte, 32)))
		if err != nil {
			return nil, err
		}
		r := new(big.Int).SetBytes(kR.PublicKey().Bytes()[1:33]) // 0x04 || x || y
		s := new(big.Int).Mul(r.Mod(r, p256N), d)
		s.Add(s, new(big.Int).SetBytes(digest[:]))
		s.Mul(s, k.ModInverse(k, p256N)).Mod(s, p256N)
		if r.Sign() == 0 || s.Sign() == 0 {
			continue
		}
		sig := seq(integer(r), integer(s))
		if !checkECDSA(d, kR, digest, sig) {
			return nil, errors.New("the signature does not verify")
		}
		return sig, nil
	}
}

// checkECDSA reports whether sig, parsed under ecdsa.VerifyASN1's strict
// rules, is (r, s) with r ≡ x(R) and s·k ≡ e + r·d (mod n), where kR holds
// the nonce k and its point R. Then VerifyASN1's point s⁻¹e·G + s⁻¹r·Q is
// k·G for Q = d·G. It checks the scalar arithmetic and the DER, not that R
// is k·G: FuzzSignatureCheck and tlsnet's TestWorldLeavesVerify hold that
// to VerifyASN1. Sound but not complete, it rejects (r, n−s), which verifies.
func checkECDSA(d *big.Int, kR *ecdh.PrivateKey, digest [32]byte, sig []byte) bool {
	// Like VerifyASN1's parser, encoding/asn1 takes only minimal lengths
	// and minimally encoded INTEGERs; the rest is checked here.
	var rs []*big.Int
	if rest, err := asn1.Unmarshal(sig, &rs); err != nil || len(rest) > 0 || len(rs) != 2 {
		return false
	}
	r, s := rs[0], rs[1]
	if r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(p256N) >= 0 || s.Cmp(p256N) >= 0 {
		return false
	}
	x := new(big.Int).SetBytes(kR.PublicKey().Bytes()[1:33])
	sk := new(big.Int).Mul(s, new(big.Int).SetBytes(kR.Bytes()))
	sk.Sub(sk, new(big.Int).SetBytes(digest[:])).Sub(sk, new(big.Int).Mul(r, d))
	return x.Mod(x, p256N).Cmp(r) == 0 && sk.Mod(sk, p256N).Sign() == 0
}
