package certgen

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
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
// not d·G would pass the private-scalar signature check alone.
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

// TestVerifyRejectsTamperedSignatures covers the check sign runs on every
// signature, for both signer types: a signature verifies over its own
// digest under its own key only. With the standard library's signers and
// checkSigners passed, sign never meets a bad signature.
func TestVerifyRejectsTamperedSignatures(t *testing.T) {
	g := NewGenerator(1)
	for i, opts := range [][]Option{nil, {WithRSA(1024)}} {
		ca, err := g.SelfSignedCA(fmt.Sprintf("Tamper Root %d", i), opts...)
		if err != nil {
			t.Fatal(err)
		}
		digest := sha256.Sum256([]byte("tbs"))
		sig, err := ca.Key.Sign(newDRBG(1, "tamper"), digest[:], crypto.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		if !verify(ca.Key, digest, sig) {
			t.Errorf("%T: valid signature rejected", ca.Key)
		}
		other := digest
		other[0] ^= 1
		if verify(ca.Key, other, sig) {
			t.Errorf("%T: signature accepted over another digest", ca.Key)
		}
		sig[len(sig)-1] ^= 1
		if verify(ca.Key, digest, sig) {
			t.Errorf("%T: tampered signature accepted", ca.Key)
		}
	}
	if verify(ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)), [32]byte{}, nil) {
		t.Error("an unsupported signer type verified")
	}
}

// FuzzSignatureCheck checks that, for a key whose public point is d·G,
// the private-scalar check accepts exactly the signatures
// ecdsa.VerifyASN1 accepts, for any digest and any signature bytes.
func FuzzSignatureCheck(f *testing.F) {
	key, err := deterministicECDSAKey(newDRBG(1, "fuzz-signature-check"))
	if err != nil {
		f.Fatal(err)
	}
	digest := sha256.Sum256([]byte("certgen"))
	// A valid signature whose r has its top bit set, so that r's bytes
	// without the leading zero are a negative INTEGER.
	var (
		valid []byte
		r, s  *big.Int
	)
	for i := int64(0); r == nil || r.Bytes()[0]&0x80 == 0; i++ {
		if valid, err = ecdsa.SignASN1(newDRBG(i, "fuzz-signature"), key, digest[:]); err != nil {
			f.Fatal(err)
		}
		if !ecdsa.VerifyASN1(&key.PublicKey, digest[:], valid) {
			f.Fatal("the seed signature does not verify")
		}
		var rs []*big.Int
		if _, err := asn1.Unmarshal(valid, &rs); err != nil {
			f.Fatal(err)
		}
		r, s = rs[0], rs[1]
	}
	// r = −e·d⁻¹ mod n makes t = s⁻¹(e + r·d) zero for every s.
	e := new(big.Int).SetBytes(digest[:])
	rZero := e.Neg(e).Mul(e, new(big.Int).ModInverse(key.D, p256N)).Mod(e, p256N)
	raw := func(content ...byte) []byte { return tlv(0x02, content) }
	integer := func(v *big.Int) []byte {
		b, err := asn1.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	R, S, zero := integer(r), integer(s), raw(0)
	N, rPlusN := integer(p256N), integer(new(big.Int).Add(r, p256N))
	inner := append(append([]byte(nil), R...), S...)
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
	} {
		f.Add(digest[:], sig)
	}
	f.Fuzz(func(t *testing.T, digestBytes, sig []byte) {
		var d [32]byte
		copy(d[:], digestBytes)
		want := ecdsa.VerifyASN1(&key.PublicKey, d[:], sig)
		if got := verifyWithScalar(key.D, d, sig); got != want {
			t.Fatalf("digest %x, signature %x: private-scalar check says %v, VerifyASN1 says %v", d, sig, got, want)
		}
	})
}
