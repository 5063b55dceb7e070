package tap

import (
	"bytes"
	"crypto/x509"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
)

// feedAll runs a fresh parser over the chunks in order, returning the
// chain it emitted and the first error.
func feedAll(c *corpus.Corpus, chunks ...[]byte) ([]*x509.Certificate, error) {
	var chain []*x509.Certificate
	p := &StreamParser{Corpus: c, OnChain: func(got []*x509.Certificate) { chain = got }}
	var first error
	for _, chunk := range chunks {
		if err := p.Feed(chunk); err != nil && first == nil {
			first = err
		}
	}
	return chain, first
}

// FuzzTapParser feeds arbitrary server-to-client bytes to the stream
// parser. It must never panic, and where TCP happens to cut the stream
// must not matter: the input split at any offset yields the same chain
// (by DER) and fails or succeeds alike.
func FuzzTapParser(f *testing.F) {
	// TestParserDirect
	g := certgen.NewGenerator(170)
	root, err := g.SelfSignedCA("Tap Parser Root")
	if err != nil {
		f.Fatal(err)
	}
	leaf, err := g.Leaf(root, "tap.example.com")
	if err != nil {
		f.Fatal(err)
	}
	msg := buildCertMessage([][]byte{leaf.Cert.Raw, root.Cert.Raw})
	half := len(msg) / 2
	f.Add(append(record(msg[:half]), record(msg[half:])...), uint(half))
	// TestParserRejectsGarbage
	f.Add([]byte{22, 3, 3, 0xff, 0xff, 0}, uint(3))
	junk := []byte{0, 0, 7, 0, 0, 4, 'j', 'u', 'n', 'k'}
	f.Add(record(append([]byte{handshakeTypeCert, 0, 0, byte(len(junk))}, junk...)), uint(0))

	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		c := corpus.New()
		whole, wholeErr := feedAll(c, data)
		at := int(split % uint(len(data)+1))
		parts, partsErr := feedAll(c, data[:at], data[at:])
		if (wholeErr == nil) != (partsErr == nil) {
			t.Fatalf("split at %d: error %v, whole input: %v", at, partsErr, wholeErr)
		}
		if len(whole) != len(parts) {
			t.Fatalf("split at %d: %d certificates, whole input: %d", at, len(parts), len(whole))
		}
		for i := range whole {
			if !bytes.Equal(whole[i].Raw, parts[i].Raw) {
				t.Fatalf("split at %d: certificate %d differs from the whole input's", at, i)
			}
		}
	})
}
