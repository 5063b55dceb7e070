package certgen

//lint:file-ignore errwrap hash.Hash.Write is documented to never return an error

import (
	"crypto/sha256"
	"encoding/binary"
)

// drbg is a deterministic byte stream built from SHA-256 in counter mode.
// It exists so the CA universe can be regenerated bit-for-bit from a seed:
// key generation and signing nonces draw from it, not from crypto/rand. It
// is NOT suitable for production key generation — it is a simulation
// substrate, which DESIGN.md documents as a dataset substitution.
type drbg struct {
	key     [32]byte
	counter uint64
	buf     []byte
}

func newDRBG(seed int64, label string) *drbg {
	h := sha256.New()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	h.Write(s[:])
	h.Write([]byte(label))
	d := &drbg{}
	copy(d.key[:], h.Sum(nil))
	return d
}

// Read fills p with deterministic pseudo-random bytes. It never fails.
func (d *drbg) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(d.buf) == 0 {
			var ctr [8]byte
			binary.BigEndian.PutUint64(ctr[:], d.counter)
			d.counter++
			h := sha256.New()
			h.Write(d.key[:])
			h.Write(ctr[:])
			d.buf = h.Sum(nil)
		}
		c := copy(p, d.buf)
		p = p[c:]
		d.buf = d.buf[c:]
	}
	return n, nil
}
