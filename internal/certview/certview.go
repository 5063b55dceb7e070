// Package certview renders X.509 certificates as human-readable text, in
// the spirit of `openssl x509 -text`: subject, issuer, validity, key
// information, constraints and the fingerprints/hashes the rest of the
// system keys on (SHA-1, SHA-256, and the Android subject hash used in
// cacerts file names and the paper's Figure 2 labels).
package certview

import (
	"crypto/ecdsa"
	"crypto/rsa"
	"crypto/x509"
	"encoding/base64"
	"fmt"
	"strings"
	"time"

	"tangledmass/internal/certid"
)

// base64Std avoids re-importing encoding/pem for a single encode.
func base64Std(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

// Options controls rendering.
type Options struct {
	// Now is the instant used to annotate validity ("expired", "not yet
	// valid"). Zero means no annotation.
	Now time.Time
	// ShowPEM appends the PEM encoding.
	ShowPEM bool
}

// Render produces the text form of one certificate.
func Render(cert *x509.Certificate, opts Options) string {
	var b strings.Builder
	w := func(format string, args ...any) { b.WriteString(fmt.Sprintf(format+"\n", args...)) }

	w("Certificate:")
	w("    Serial Number: %s", cert.SerialNumber)
	w("    Subject: %s", certid.SubjectString(cert))
	w("    Issuer:  %s", cert.Issuer)
	validity := ""
	if !opts.Now.IsZero() {
		switch {
		case opts.Now.Before(cert.NotBefore):
			validity = "  [not yet valid]"
		case opts.Now.After(cert.NotAfter):
			validity = "  [EXPIRED]"
		default:
			validity = "  [valid]"
		}
	}
	w("    Validity:")
	w("        Not Before: %s", cert.NotBefore.Format(time.RFC3339))
	w("        Not After:  %s%s", cert.NotAfter.Format(time.RFC3339), validity)
	w("    Public Key: %s", describeKey(cert))
	w("    Basic Constraints: CA=%v%s", cert.IsCA, pathLen(cert))
	if ku := keyUsage(cert.KeyUsage); ku != "" {
		w("    Key Usage: %s", ku)
	}
	if len(cert.ExtKeyUsage) > 0 {
		w("    Extended Key Usage: %s", extKeyUsage(cert.ExtKeyUsage))
	}
	if len(cert.DNSNames) > 0 {
		w("    Subject Alternative Names: %s", strings.Join(cert.DNSNames, ", "))
	}
	if selfIssued := string(cert.RawSubject) == string(cert.RawIssuer); selfIssued {
		w("    Self-issued: true")
	}
	w("    Fingerprints:")
	w("        SHA-1:   %s", certid.SHA1Fingerprint(cert))
	w("        SHA-256: %s", certid.SHA256Fingerprint(cert))
	w("        Android subject hash: %s", certid.SubjectHashString(cert))
	if opts.ShowPEM {
		b.WriteString(pemEncode(cert))
	}
	return b.String()
}

func describeKey(cert *x509.Certificate) string {
	switch pub := cert.PublicKey.(type) {
	case *rsa.PublicKey:
		return fmt.Sprintf("RSA %d bits (e=%d)", pub.N.BitLen(), pub.E)
	case *ecdsa.PublicKey:
		return fmt.Sprintf("ECDSA %s", pub.Curve.Params().Name)
	default:
		return fmt.Sprintf("%T", pub)
	}
}

func pathLen(cert *x509.Certificate) string {
	if !cert.IsCA {
		return ""
	}
	if cert.MaxPathLen > 0 || (cert.MaxPathLen == 0 && cert.MaxPathLenZero) {
		return fmt.Sprintf(", pathlen=%d", cert.MaxPathLen)
	}
	return ""
}

var keyUsageNames = []struct {
	bit  x509.KeyUsage
	name string
}{
	{x509.KeyUsageDigitalSignature, "digital-signature"},
	{x509.KeyUsageContentCommitment, "content-commitment"},
	{x509.KeyUsageKeyEncipherment, "key-encipherment"},
	{x509.KeyUsageDataEncipherment, "data-encipherment"},
	{x509.KeyUsageKeyAgreement, "key-agreement"},
	{x509.KeyUsageCertSign, "cert-sign"},
	{x509.KeyUsageCRLSign, "crl-sign"},
	{x509.KeyUsageEncipherOnly, "encipher-only"},
	{x509.KeyUsageDecipherOnly, "decipher-only"},
}

func keyUsage(ku x509.KeyUsage) string {
	var parts []string
	for _, n := range keyUsageNames {
		if ku&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, ", ")
}

var extKeyUsageNames = map[x509.ExtKeyUsage]string{
	x509.ExtKeyUsageServerAuth:      "server-auth",
	x509.ExtKeyUsageClientAuth:      "client-auth",
	x509.ExtKeyUsageCodeSigning:     "code-signing",
	x509.ExtKeyUsageEmailProtection: "email-protection",
	x509.ExtKeyUsageTimeStamping:    "time-stamping",
	x509.ExtKeyUsageOCSPSigning:     "ocsp-signing",
}

func extKeyUsage(ekus []x509.ExtKeyUsage) string {
	parts := make([]string, 0, len(ekus))
	for _, e := range ekus {
		if n, ok := extKeyUsageNames[e]; ok {
			parts = append(parts, n)
		} else {
			parts = append(parts, fmt.Sprintf("eku(%d)", e))
		}
	}
	return strings.Join(parts, ", ")
}

func pemEncode(cert *x509.Certificate) string {
	const line = 64
	var b strings.Builder
	b.WriteString("-----BEGIN CERTIFICATE-----\n")
	enc := base64Std(cert.Raw)
	for i := 0; i < len(enc); i += line {
		end := i + line
		if end > len(enc) {
			end = len(enc)
		}
		b.WriteString(enc[i:end])
		b.WriteByte('\n')
	}
	b.WriteString("-----END CERTIFICATE-----\n")
	return b.String()
}
