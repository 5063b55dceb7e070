package fota

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"

	"tangledmass/internal/wire"
)

// Server is the vendor's update endpoint: a TLS listener authenticated by a
// FOTA-root-issued certificate that answers every connection with the
// current signed manifest. Close expires pending reads, so a client that
// connected but never finished its handshake does not hold it up.
type Server struct {
	*wire.Listener
	manifest Manifest
	cred     tls.Certificate
}

// NewServer starts an update server on 127.0.0.1 (ephemeral port). The
// signer's certificate doubles as the TLS credential, mirroring vendor
// practice of one FOTA service identity.
func NewServer(signer *Signer, manifest Manifest) (*Server, error) {
	if manifest.Signature == nil {
		signed, err := signer.Sign(manifest)
		if err != nil {
			return nil, err
		}
		manifest = signed
	}
	s := &Server{
		manifest: manifest,
		cred: tls.Certificate{
			Certificate: [][]byte{signer.Cert.Cert.Raw},
			PrivateKey:  signer.Cert.Key,
		},
	}
	var err error
	if s.Listener, err = wire.Listen("127.0.0.1:0", s.handle); err != nil {
		return nil, fmt.Errorf("fota: listening: %w", err)
	}
	return s, nil
}

func (s *Server) handle(conn net.Conn) {
	tconn := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{s.cred}})
	if err := tconn.Handshake(); err != nil {
		return
	}
	if err := json.NewEncoder(tconn).Encode(s.manifest); err != nil {
		return
	}
	// Best-effort close_notify; the listener closes the raw conn.
	_ = tconn.Close()
}
