package certview

import (
	"crypto/x509"
	"strings"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/rootstore"
)

func testChain(t *testing.T) []*x509.Certificate {
	t.Helper()
	g := certgen.NewGenerator(120)
	root, err := g.SelfSignedCA("View Root", certgen.WithOrganization("View Org"), certgen.WithCountry("US"))
	if err != nil {
		t.Fatal(err)
	}
	inter, err := g.Intermediate(root, "View Intermediate")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := g.Leaf(inter, "view.example.com")
	if err != nil {
		t.Fatal(err)
	}
	return []*x509.Certificate{leaf.Cert, inter.Cert, root.Cert}
}

func TestRenderFields(t *testing.T) {
	chain := testChain(t)
	out := Render(chain[2], Options{Now: certgen.Epoch})
	for _, want := range []string{
		"CN=View Root", "O=View Org", "C=US",
		"ECDSA P-256", "CA=true", "cert-sign", "crl-sign",
		"SHA-1:", "SHA-256:", "Android subject hash:",
		"Self-issued: true", "[valid]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("root rendering missing %q:\n%s", want, out)
		}
	}

	leafOut := Render(chain[0], Options{})
	for _, want := range []string{
		"view.example.com", "CA=false", "server-auth", "client-auth",
		"Subject Alternative Names: view.example.com",
	} {
		if !strings.Contains(leafOut, want) {
			t.Errorf("leaf rendering missing %q", want)
		}
	}
	if strings.Contains(leafOut, "[valid]") {
		t.Error("no validity annotation expected without Now")
	}
	if strings.Contains(leafOut, "Self-issued") {
		t.Error("leaf is not self-issued")
	}
}

func TestRenderExpiredAnnotation(t *testing.T) {
	g := certgen.NewGenerator(121)
	old, err := g.SelfSignedCA("Old Root", certgen.Expired())
	if err != nil {
		t.Fatal(err)
	}
	out := Render(old.Cert, Options{Now: certgen.Epoch})
	if !strings.Contains(out, "[EXPIRED]") {
		t.Errorf("expired annotation missing:\n%s", out)
	}
	future := Render(old.Cert, Options{Now: old.Cert.NotBefore.AddDate(-1, 0, 0)})
	if !strings.Contains(future, "[not yet valid]") {
		t.Error("not-yet-valid annotation missing")
	}
}

func TestRenderRSAKey(t *testing.T) {
	g := certgen.NewGenerator(122)
	rsaRoot, err := g.SelfSignedCA("RSA View Root", certgen.WithRSA(1024))
	if err != nil {
		t.Fatal(err)
	}
	out := Render(rsaRoot.Cert, Options{})
	if !strings.Contains(out, "RSA 1024 bits (e=65537)") {
		t.Errorf("RSA key description missing:\n%s", out)
	}
}

func TestRenderPEMRoundTrips(t *testing.T) {
	chain := testChain(t)
	out := Render(chain[0], Options{ShowPEM: true})
	idx := strings.Index(out, "-----BEGIN CERTIFICATE-----")
	if idx < 0 {
		t.Fatal("PEM block missing")
	}
	parsed, err := rootstore.ParsePEMCertificates([]byte(out[idx:]))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || string(parsed[0].Raw) != string(chain[0].Raw) {
		t.Error("rendered PEM does not round-trip to the same certificate")
	}
}
