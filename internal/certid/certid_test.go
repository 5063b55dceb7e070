package certid

import (
	"fmt"
	"strings"
	"testing"

	"tangledmass/internal/certgen"
)

func TestEquivalentAcrossReissue(t *testing.T) {
	g := certgen.NewGenerator(1)
	orig, err := g.SelfSignedCA("Equiv Root", certgen.WithOrganization("O"))
	if err != nil {
		t.Fatal(err)
	}
	re, err := g.Reissue(orig, certgen.WithValidity(certgen.Epoch, certgen.Epoch.AddDate(25, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if string(orig.Cert.Raw) == string(re.Cert.Raw) {
		t.Fatal("test needs byte-distinct certs")
	}
	if !Equivalent(orig.Cert, re.Cert) {
		t.Error("reissued root should be Equivalent (same subject + key)")
	}
	if SHA1Fingerprint(orig.Cert) == SHA1Fingerprint(re.Cert) {
		t.Error("byte-distinct certs must have distinct SHA-1 fingerprints")
	}
}

func TestNotEquivalentDifferentKey(t *testing.T) {
	g := certgen.NewGenerator(1)
	a, _ := g.SelfSignedCA("Same Subject", certgen.WithKeyName("key-a"))
	b, _ := g.SelfSignedCA("Same Subject", certgen.WithKeyName("key-b"))
	if a.Cert.Subject.String() != b.Cert.Subject.String() {
		t.Fatal("subjects should match")
	}
	if Equivalent(a.Cert, b.Cert) {
		t.Error("same subject but different key must not be Equivalent")
	}
}

func TestNotEquivalentDifferentSubject(t *testing.T) {
	g := certgen.NewGenerator(1)
	a, _ := g.SelfSignedCA("Subject A", certgen.WithKeyName("shared"))
	b, _ := g.SelfSignedCA("Subject B", certgen.WithKeyName("shared"))
	if Equivalent(a.Cert, b.Cert) {
		t.Error("same key but different subject must not be Equivalent")
	}
}

func TestKeyIdentityRSAUsesModulus(t *testing.T) {
	g := certgen.NewGenerator(1)
	ca, err := g.SelfSignedCA("RSA Identity", certgen.WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	id := KeyIdentity(ca.Cert)
	if !strings.HasPrefix(string(id), "rsa:") {
		t.Errorf("RSA KeyID = %q, want rsa: prefix", id)
	}
	// 1024-bit modulus → 128 bytes → 256 hex chars.
	if len(id) != len("rsa:")+256 {
		t.Errorf("RSA KeyID length = %d", len(id))
	}
}

func TestKeyIdentityECDSA(t *testing.T) {
	g := certgen.NewGenerator(1)
	ca, _ := g.SelfSignedCA("EC Identity")
	id := KeyIdentity(ca.Cert)
	if !strings.HasPrefix(string(id), "ecdsa:") {
		t.Errorf("ECDSA KeyID = %q, want ecdsa: prefix", id)
	}
}

func TestSubjectHashStable(t *testing.T) {
	g := certgen.NewGenerator(1)
	orig, _ := g.SelfSignedCA("Hash Root", certgen.WithOrganization("HO"))
	re, _ := g.Reissue(orig, certgen.WithValidity(certgen.Epoch, certgen.Epoch.AddDate(20, 0, 0)))
	if SubjectHash32(orig.Cert) != SubjectHash32(re.Cert) {
		t.Error("subject hash must survive reissue (same subject)")
	}
	other, _ := g.SelfSignedCA("Other Root")
	if SubjectHash32(orig.Cert) == SubjectHash32(other.Cert) {
		t.Error("different subjects should (overwhelmingly) hash differently")
	}
}

func TestSubjectHashStringFormat(t *testing.T) {
	g := certgen.NewGenerator(1)
	ca, _ := g.SelfSignedCA("Hash Format Root")
	s := SubjectHashString(ca.Cert)
	if len(s) != 8 {
		t.Errorf("hash string %q length %d, want 8", s, len(s))
	}
	for _, c := range s {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Errorf("hash string %q contains non-hex rune %q", s, c)
		}
	}
	for _, h := range []uint32{0, 1, 0xff, 0xa0b0c0d, 0xdeadbeef, 0xffffffff, SubjectHash32(ca.Cert)} {
		if got, want := FormatSubjectHash(h), fmt.Sprintf("%08x", h); got != want {
			t.Errorf("FormatSubjectHash(%#x) = %q, want %q", h, got, want)
		}
	}
}

func TestFingerprints(t *testing.T) {
	g := certgen.NewGenerator(1)
	ca, _ := g.SelfSignedCA("FP Root")
	if len(SHA1Fingerprint(ca.Cert)) != 40 {
		t.Error("SHA-1 fingerprint should be 40 hex chars")
	}
	if len(SHA256Fingerprint(ca.Cert)) != 64 {
		t.Error("SHA-256 fingerprint should be 64 hex chars")
	}
	if SHA1Fingerprint(ca.Cert) != SHA1Fingerprint(ca.Cert) {
		t.Error("fingerprint must be stable")
	}
}

func TestIdentityOfAndString(t *testing.T) {
	g := certgen.NewGenerator(1)
	ca, _ := g.SelfSignedCA("ID Root", certgen.WithOrganization("Org"), certgen.WithCountry("US"))
	id := IdentityOf(ca.Cert)
	if id.Subject == "" || id.Key == "" {
		t.Fatalf("incomplete identity: %+v", id)
	}
	if !strings.Contains(id.Subject, "ID Root") {
		t.Errorf("subject %q missing CN", id.Subject)
	}
	if !strings.Contains(id.String(), "ID Root") {
		t.Errorf("String() = %q missing CN", id.String())
	}
	// Identity is a comparable value usable as a map key.
	m := map[Identity]bool{id: true}
	if !m[IdentityOf(ca.Cert)] {
		t.Error("identical certs should produce identical map keys")
	}
}

func TestSubjectStringCanonical(t *testing.T) {
	g := certgen.NewGenerator(1)
	ca, _ := g.SelfSignedCA("Canon Root", certgen.WithOrganization("Canon Org"), certgen.WithCountry("FR"))
	s := SubjectString(ca.Cert)
	for _, part := range []string{"CN=Canon Root", "O=Canon Org", "C=FR"} {
		if !strings.Contains(s, part) {
			t.Errorf("SubjectString %q missing %q", s, part)
		}
	}
}
