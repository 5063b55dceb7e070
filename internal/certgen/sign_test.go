package certgen

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"io"
	"math/big"
	"net"
	"testing"
	"time"
)

// referenceCert issues p through x509.CreateCertificate, from the template
// p's options describe. It is the oracle for the TBS encoder.
func referenceCert(t *testing.T, seed int64, p pending) *x509.Certificate {
	t.Helper()
	tmpl := &x509.Certificate{
		SerialNumber:          p.serial,
		Subject:               pkix.Name{CommonName: p.cn, Organization: p.o.org, Country: p.o.country},
		NotBefore:             p.o.notBefore,
		NotAfter:              p.o.notAfter,
		BasicConstraintsValid: true,
		IsCA:                  p.o.isCA,
	}
	if p.o.isCA {
		tmpl.KeyUsage = x509.KeyUsageCertSign | x509.KeyUsageCRLSign
		if len(p.o.permittedDNS) > 0 {
			tmpl.PermittedDNSDomainsCritical = true
			tmpl.PermittedDNSDomains = p.o.permittedDNS
		}
	} else {
		tmpl.KeyUsage = x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment
		tmpl.ExtKeyUsage = []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth}
		tmpl.DNSNames = p.o.dnsNames
		tmpl.IPAddresses = p.o.ipAddresses
	}
	parent := tmpl
	if p.parent != nil {
		parent = p.parent
	}
	der, err := x509.CreateCertificate(newDRBG(seed, "sig/"+p.cn), tmpl, parent, p.key.Public(), p.signerKey)
	if err != nil {
		t.Fatalf("%s: CreateCertificate: %v", p.cn, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// signatureAlgorithm returns the raw AlgorithmIdentifier that follows the
// TBS in a certificate's DER.
func signatureAlgorithm(t *testing.T, der []byte) []byte {
	t.Helper()
	var c struct {
		TBS, Alg asn1.RawValue
		Sig      asn1.BitString
	}
	if _, err := asn1.Unmarshal(der, &c); err != nil {
		t.Fatal(err)
	}
	return c.Alg.FullBytes
}

// TestTBSMatchesCreateCertificate issues every certificate shape certgen
// can express, under ECDSA and RSA signers, and compares the encoder's TBS
// and signature AlgorithmIdentifier with CreateCertificate's for the same
// template. PKCS #1 v1.5 signing is deterministic, so RSA-signed
// certificates must match in full.
func TestTBSMatchesCreateCertificate(t *testing.T) {
	ca := func(opts ...Option) options {
		o := applyOptions(opts)
		o.isCA = true
		return o
	}
	leaf := func(cn string, opts ...Option) options { return leafOptions(cn, opts) }
	for _, seed := range []int64{1, 7} {
		g := NewGenerator(seed)
		root, err := g.SelfSignedCA("Oracle Root", WithOrganization("Oracle Org"), WithCountry("US"))
		if err != nil {
			t.Fatal(err)
		}
		rsaRoot, err := g.SelfSignedCA("Oracle RSA Root", WithRSA(1024))
		if err != nil {
			t.Fatal(err)
		}
		inter, err := g.Intermediate(root, "Oracle Intermediate")
		if err != nil {
			t.Fatal(err)
		}
		shapes := []struct {
			name   string
			parent *Issued
			cn     string
			o      options
		}{
			{"self-signed CA", nil, "Shape Root", ca(WithOrganization("Shape Org"), WithCountry("DE"))},
			{"self-signed RSA CA", nil, "Shape RSA Root", ca(WithRSA(1024))},
			{"reissued CA", nil, "Oracle Root", ca(WithKeyName("Oracle Root"), WithOrganization("Oracle Org"),
				WithCountry("US"), WithValidity(Epoch.AddDate(0, 0, 1), Epoch.AddDate(20, 0, 0)))},
			{"expired CA", nil, "Shape Expired Root", ca(Expired())},
			{"name-constrained CA", nil, "Carrier CA", ca(WithNameConstraints("carrier.example", "mail.carrier.example"))},
			{"intermediate", root, "Shape Intermediate", ca()},
			{"RSA-signed intermediate", rsaRoot, "Shape RSA Intermediate", ca()},
			{"name-constrained intermediate", root, "Shape Constrained Intermediate", ca(WithNameConstraints("corp.example"))},
			{"DNS leaf", inter, "www.example.com", leaf("www.example.com")},
			{"RSA-signed DNS leaf", rsaRoot, "rsa.example.com", leaf("rsa.example.com", WithDNSNames("a.example", "b.example"))},
			{"RSA leaf key", root, "rsakey.example.com", leaf("rsakey.example.com", WithRSA(1024))},
			{"IP leaf", root, "10.0.0.1", leaf("10.0.0.1", WithIPAddresses(net.IPv4(10, 0, 0, 1), net.ParseIP("2001:db8::1")))},
			{"DNS and IP leaf", rsaRoot, "mixed.example.com", leaf("mixed.example.com",
				WithDNSNames("mixed.example.com"), WithIPAddresses(net.IPv4(192, 0, 2, 7)))},
			{"shared-key leaf", inter, "host000001.example.net", leaf("host000001.example.net",
				WithKeyName("shared-leaf-key"), WithOrganization("Server Operator"))},
			{"UTF-8 and multi-valued names", root, "*.wildcard.example", leaf("*.wildcard.example",
				WithOrganization("Zeta & Co", "Alpha", "Ärzte GmbH"), WithCountry("DE", "AT"))},
			{"GeneralizedTime validity", root, "long.example.com", leaf("long.example.com",
				WithValidity(time.Date(1949, 12, 31, 23, 59, 59, 0, time.UTC), time.Date(2050, 1, 1, 0, 0, 0, 0, time.UTC)))},
			{"subject equal to issuer", root, "Oracle Root", leaf("Oracle Root",
				WithKeyName("Oracle Root Leaf"), WithOrganization("Oracle Org"), WithCountry("US"))},
			{"empty subject", root, "", leaf("", WithDNSNames("empty-subject.example"))},
		}
		for _, s := range shapes {
			g.mu.Lock()
			p, err := g.prepareLocked(s.cn, s.parent, s.o)
			g.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			want := referenceCert(t, seed, p)
			if err := checkSigners([]pending{p}); err != nil {
				t.Fatal(err)
			}
			got, err := p.sign()
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, s.name, err)
			}
			if !bytes.Equal(got.Cert.RawTBSCertificate, want.RawTBSCertificate) {
				t.Errorf("seed %d, %s: TBS differs from CreateCertificate's\n got %x\nwant %x",
					seed, s.name, got.Cert.RawTBSCertificate, want.RawTBSCertificate)
			}
			if !bytes.Equal(signatureAlgorithm(t, got.Cert.Raw), signatureAlgorithm(t, want.Raw)) {
				t.Errorf("seed %d, %s: signature AlgorithmIdentifier differs from CreateCertificate's", seed, s.name)
			}
			if _, isRSA := p.signerKey.(*rsa.PrivateKey); isRSA && !bytes.Equal(got.Cert.Raw, want.Raw) {
				t.Errorf("seed %d, %s: RSA-signed certificate differs from CreateCertificate's", seed, s.name)
			}
			signer := got.Cert
			if s.parent != nil {
				signer = s.parent.Cert
			}
			if err := got.Cert.CheckSignatureFrom(signer); err != nil {
				t.Errorf("seed %d, %s: %v", seed, s.name, err)
			}
		}
	}
}

// TestUnencodableInputsFail: input x509.CreateCertificate refuses fails
// issuance too, at the re-parse of the encoded certificate.
func TestUnencodableInputsFail(t *testing.T) {
	g := NewGenerator(1)
	root, err := g.SelfSignedCA("Unencodable Root")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() (*Issued, error){
		"non-IA5 SAN": func() (*Issued, error) { return g.Leaf(root, "x.example", WithDNSNames("bücher.example")) },
		"non-IA5 name constraint": func() (*Issued, error) {
			return g.Intermediate(root, "Unencodable Constrained CA", WithNameConstraints("bücher.example"))
		},
		"invalid UTF-8 name": func() (*Issued, error) { return g.Leaf(root, "y.example", WithOrganization("\xff")) },
		"year past 9999": func() (*Issued, error) {
			return g.Leaf(root, "z.example", WithValidity(Epoch, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)))
		},
	}
	for name, issue := range cases {
		if _, err := issue(); err == nil {
			t.Errorf("%s: issued a certificate", name)
		}
	}
}

// TestSignerChecks covers the two checks issuance shares with
// x509.CreateCertificate: the signer's public key must be the parent's,
// and the signature must verify under it. A signing key whose public half is
// not d·G would pass the signature check alone.
func TestSignerChecks(t *testing.T) {
	g := NewGenerator(1)
	a, err := g.SelfSignedCA("Signer Check Root A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.SelfSignedCA("Signer Check Root B")
	if err != nil {
		t.Fatal(err)
	}
	aKey, bKey := a.Key.(*ecdsa.PrivateKey), b.Key.(*ecdsa.PrivateKey)
	bad := []struct {
		name   string
		parent *Issued
	}{
		{"key of another certificate", &Issued{Cert: a.Cert, Key: b.Key}},
		{"public key is not d·G", &Issued{Cert: a.Cert, Key: &ecdsa.PrivateKey{PublicKey: aKey.PublicKey, D: bKey.D}}},
		{"unsupported signer type", &Issued{Cert: a.Cert, Key: ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))}},
	}
	for _, c := range bad {
		if _, err := g.Leaf(c.parent, "leaf.example.com"); err == nil {
			t.Errorf("%s: Leaf accepted the parent", c.name)
		}
		if _, err := g.Intermediate(c.parent, "Signer Check Intermediate"); err == nil {
			t.Errorf("%s: Intermediate accepted the parent", c.name)
		}
		got, err := g.Leaves([]LeafRequest{
			{Parent: a, CN: "ok.example.com"},
			{Parent: c.parent, CN: "bad.example.com"},
			{Parent: b, CN: "after.example.com"},
		})
		if err == nil || got != nil {
			t.Errorf("%s: Leaves returned %d certificates and error %v, want none and an error", c.name, len(got), err)
		}
	}
}

// TestVerifyRejectsTamperedSignatures covers the checks sign runs on every
// signature. checkECDSA accepts the signature signECDSA just made, and
// rejects it with a flipped byte, over another digest or under another
// nonce. It also rejects (r, n−s), which ecdsa.VerifyASN1 accepts: the
// check is sound but not complete. checkRSA accepts a PKCS #1 v1.5
// signature over its own digest only. Neither signer makes a signature its
// check rejects, so the checks are exercised here directly.
func TestVerifyRejectsTamperedSignatures(t *testing.T) {
	key, err := deterministicECDSAKey(newDRBG(1, "tamper"))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("tbs"))
	sig, err := signECDSA(key.D, digest, newDRBG(1, "tamper-sig"))
	if err != nil {
		t.Fatal(err)
	}
	k := refNonce(t, key.D, digest, newDRBG(1, "tamper-sig"))
	if !checkECDSA(key.D, k, digest, sig) || !ecdsa.VerifyASN1(&key.PublicKey, digest[:], sig) {
		t.Fatal("the signature signECDSA made does not pass its check or VerifyASN1")
	}
	otherK := refNonce(t, key.D, digest, newDRBG(2, "tamper-sig"))
	otherDigest := digest
	otherDigest[0] ^= 1
	flipped := bytes.Clone(sig)
	flipped[len(flipped)-1] ^= 1
	var rs []*big.Int
	if _, err := asn1.Unmarshal(sig, &rs); err != nil {
		t.Fatal(err)
	}
	negS := seq(integer(rs[0]), integer(new(big.Int).Sub(p256N, rs[1])))
	if !ecdsa.VerifyASN1(&key.PublicKey, digest[:], negS) {
		t.Fatal("VerifyASN1 rejects (r, n−s)")
	}
	otherR := forgeR(key.D, k, digest, new(big.Int).Add(rs[0], big.NewInt(1)))
	for name, c := range map[string]struct {
		k      *ecdh.PrivateKey
		digest [32]byte
		sig    []byte
	}{
		"a flipped byte":    {k, digest, flipped},
		"another digest":    {k, otherDigest, sig},
		"another nonce":     {otherK, digest, sig},
		"s replaced by n−s": {k, digest, negS},
		"another r":         {k, digest, otherR},
	} {
		if checkECDSA(key.D, c.k, c.digest, c.sig) {
			t.Errorf("the check accepted %s", name)
		}
	}

	ca, err := NewGenerator(1).SelfSignedCA("Tamper RSA Root", WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	rsaKey := ca.Key.(*rsa.PrivateKey)
	rsaSig, err := rsaKey.Sign(newDRBG(1, "tamper-rsa"), digest[:], crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRSA(&rsaKey.PublicKey, digest, rsaSig); err != nil {
		t.Errorf("valid RSA signature rejected: %v", err)
	}
	if checkRSA(&rsaKey.PublicKey, otherDigest, rsaSig) == nil {
		t.Error("RSA signature accepted over another digest")
	}
	rsaSig[len(rsaSig)-1] ^= 1
	if checkRSA(&rsaKey.PublicKey, digest, rsaSig) == nil {
		t.Error("tampered RSA signature accepted")
	}
}

// refNonce derives the nonce signECDSA draws first from rand, by the rule
// it documents, with its point R = k·G.
func refNonce(t testing.TB, d *big.Int, digest [32]byte, rand io.Reader) *ecdh.PrivateKey {
	in := make([]byte, 96)
	d.FillBytes(in[:32])
	copy(in[32:64], digest[:])
	if _, err := io.ReadFull(rand, in[64:]); err != nil {
		t.Fatal(err)
	}
	h := sha512.Sum512(in)
	k := new(big.Int).SetBytes(h[:])
	kR, err := ecdh.P256().NewPrivateKey(k.Mod(k, p256N).FillBytes(make([]byte, 32)))
	if err != nil {
		t.Fatal(err)
	}
	return kR
}

// forgeR returns (r, s) for s = k⁻¹(e + r·d) mod n: it meets s·k ≡ e + r·d
// for any r, and so passes the check only if r ≡ x(k·G) is checked too.
func forgeR(d *big.Int, k *ecdh.PrivateKey, digest [32]byte, r *big.Int) []byte {
	s := new(big.Int).Mul(r, d)
	s.Add(s, new(big.Int).SetBytes(digest[:]))
	s.Mul(s, new(big.Int).ModInverse(new(big.Int).SetBytes(k.Bytes()), p256N)).Mod(s, p256N)
	return seq(integer(r), integer(s))
}

// TestNonceDiffersPerMessage: a root and its reissue share a signer, a
// common name and so a signing stream, yet their nonces must differ, which
// shows in r. A nonce that ignored the digest would repeat r, and two
// signatures with one r give the private key away; no verification test
// would notice.
func TestNonceDiffersPerMessage(t *testing.T) {
	g := NewGenerator(1)
	orig, err := g.SelfSignedCA("Nonce Root")
	if err != nil {
		t.Fatal(err)
	}
	re, err := g.Reissue(orig, WithValidity(Epoch, Epoch.AddDate(20, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	r := func(c *x509.Certificate) *big.Int {
		var rs []*big.Int
		if _, err := asn1.Unmarshal(c.Signature, &rs); err != nil || len(rs) != 2 {
			t.Fatalf("signature %x: %v", c.Signature, err)
		}
		return rs[0]
	}
	if r(orig.Cert).Cmp(r(re.Cert)) == 0 {
		t.Error("a certificate and its reissue carry the same r: the nonce ignores the message")
	}
}

// fuzzStream is a signing stream that starts with b.
func fuzzStream(b []byte) io.Reader {
	return io.MultiReader(bytes.NewReader(b), newDRBG(0, "fuzz-stream"))
}

// FuzzSignatureCheck holds certgen's ECDSA signer and its check to
// ecdsa.VerifyASN1. For any private scalar d in [1, n−1] (d−1 is the first
// input, reduced mod n−1), digest and signing stream, signECDSA's output
// verifies, is minimal DER and was made with the documented nonce; and for
// any signature bytes, checkECDSA accepts only what VerifyASN1 accepts,
// under the nonce that stream yields.
func FuzzSignatureCheck(f *testing.F) {
	key, err := deterministicECDSAKey(newDRBG(1, "fuzz-signature-check"))
	if err != nil {
		f.Fatal(err)
	}
	one := big.NewInt(1)
	nMinus1 := new(big.Int).Sub(p256N, one)
	dInput := new(big.Int).Sub(key.D, one).Bytes()
	digest := sha256.Sum256([]byte("certgen"))
	// A stream whose signature has an r with its top bit set, so that r's
	// bytes without the leading zero are a negative INTEGER.
	var (
		stream, valid []byte
		r, s          *big.Int
	)
	for i := 0; r == nil || r.Bytes()[0]&0x80 == 0; i++ {
		stream = []byte{byte(i)}
		if valid, err = signECDSA(key.D, digest, fuzzStream(stream)); err != nil {
			f.Fatal(err)
		}
		var rs []*big.Int
		if _, err := asn1.Unmarshal(valid, &rs); err != nil {
			f.Fatal(err)
		}
		r, s = rs[0], rs[1]
	}
	otherNonce, err := signECDSA(key.D, digest, fuzzStream(append(stream, 0)))
	if err != nil {
		f.Fatal(err)
	}
	k := refNonce(f, key.D, digest, fuzzStream(stream))
	sMinusN, err := asn1.Marshal(new(big.Int).Sub(s, p256N))
	if err != nil {
		f.Fatal(err)
	}
	// r = −e·d⁻¹ mod n makes t = s⁻¹(e + r·d) zero for every s.
	e := new(big.Int).SetBytes(digest[:])
	rZero := e.Neg(e).Mul(e, new(big.Int).ModInverse(key.D, p256N)).Mod(e, p256N)
	raw := func(content ...byte) []byte { return tlv(0x02, content) }
	R, S, zero := integer(r), integer(s), raw(0)
	N, rPlusN := integer(p256N), integer(new(big.Int).Add(r, p256N))
	inner := append(append([]byte(nil), R...), S...)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 1
	for _, sig := range [][]byte{
		valid,
		seq(zero, S), seq(R, zero), // r or s equal to 0
		seq(N, S), seq(R, N), // equal to n
		seq(rPlusN, S), seq(R, integer(new(big.Int).Add(s, p256N))), // above n, congruent to the valid value
		seq(raw(r.Bytes()...), S), seq(raw(0xff), S), seq(R, raw(append([]byte{0x80}, s.Bytes()...)...)), // negative
		seq(integer(rZero), S),                                 // t = 0
		seq(raw(append([]byte{0, 0}, r.Bytes()...)...), S),     // non-minimal INTEGER
		append([]byte{0x30, 0x81, byte(len(inner))}, inner...), // non-minimal length
		append(append([]byte(nil), valid...), 0),               // trailing byte after the SEQUENCE
		seq(R, S, zero),                                        // trailing element inside it
		seq(R), {}, {0x30, 0},
		seq(R, integer(new(big.Int).Sub(p256N, s))), // s → n−s: verifies, with t = −k
		otherNonce, // verifies, under another nonce
		flipped,
		seq(R, sMinusN), // negative, congruent to the valid s
		forgeR(key.D, k, digest, new(big.Int).Add(r, one)), // s·k ≡ e + r·d with r ≠ x(R)
	} {
		f.Add(dInput, digest[:], stream, sig)
	}
	f.Fuzz(func(t *testing.T, dBytes, digestBytes, stream, sig []byte) {
		d := new(big.Int).SetBytes(dBytes)
		d.Mod(d, nMinus1).Add(d, one)
		pub := &ecdsa.PublicKey{Curve: elliptic.P256()}
		pub.X, pub.Y = pub.Curve.ScalarBaseMult(d.FillBytes(make([]byte, 32)))
		var digest [32]byte
		copy(digest[:], digestBytes)
		own, err := signECDSA(d, digest, fuzzStream(stream))
		if err != nil {
			t.Fatalf("d %x, digest %x, stream %x: %v", d, digest, stream, err)
		}
		var rs []*big.Int
		if _, err := asn1.Unmarshal(own, &rs); err != nil || !ecdsa.VerifyASN1(pub, digest[:], own) {
			t.Fatalf("d %x, digest %x, stream %x: signature %x does not verify", d, digest, stream, own)
		}
		if minimal, err := asn1.Marshal(rs); err != nil || !bytes.Equal(minimal, own) {
			t.Fatalf("signature %x is not minimal DER (%x)", own, minimal)
		}
		k := refNonce(t, d, digest, fuzzStream(stream))
		if !checkECDSA(d, k, digest, own) {
			t.Fatalf("d %x, digest %x, stream %x: signature %x was not made with k = SHA-512(d ‖ digest ‖ stream) mod n", d, digest, stream, own)
		}
		if checkECDSA(d, k, digest, sig) && !ecdsa.VerifyASN1(pub, digest[:], sig) {
			t.Fatalf("d %x, digest %x, signature %x: the check accepts what VerifyASN1 rejects", d, digest, sig)
		}
	})
}
