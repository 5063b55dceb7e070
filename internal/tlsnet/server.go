package tlsnet

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"

	"tangledmass/internal/wire"
)

// Server is the in-process TLS origin for every named site: one loopback
// listener that selects the serving certificate by SNI, so a client can
// reach any site through a single address. It stands in for "the internet"
// when the measurement client or the interception proxy dials out. Close
// expires pending reads, so a client that connected but never finished its
// handshake does not hold it up.
type Server struct {
	*wire.Listener
	sites *Sites
}

// ServeSites starts a TLS server on 127.0.0.1 (ephemeral port) serving every
// site in sites, chosen by SNI. Close must be called to release it.
func ServeSites(sites *Sites) (*Server, error) {
	s := &Server{sites: sites}
	var err error
	if s.Listener, err = wire.Listen("127.0.0.1:0", s.handle); err != nil {
		return nil, fmt.Errorf("tlsnet: listening: %w", err)
	}
	return s, nil
}

var errUnknownSite = errors.New("tlsnet: no certificate for requested server name")

func (s *Server) handle(conn net.Conn) {
	tconn := tls.Server(conn, &tls.Config{
		GetCertificate: func(hello *tls.ClientHelloInfo) (*tls.Certificate, error) {
			site := s.sites.LookupHost(hello.ServerName)
			if site == nil {
				return nil, fmt.Errorf("%w: %q", errUnknownSite, hello.ServerName)
			}
			return &site.Credential, nil
		},
	})
	if err := tconn.Handshake(); err != nil {
		return
	}
	// A one-line banner; enough for clients that read after handshaking.
	// The handler ends here either way, so a failed write needs no handling.
	_, _ = fmt.Fprintf(tconn, "220 %s tangledmass-tls ready\r\n", tconn.ConnectionState().ServerName)
}

// Dialer connects to a named service. The direct implementation goes
// straight to the origin Server; the interception proxy wraps one.
type Dialer interface {
	// DialSite opens a TCP connection intended for host:port. The context
	// bounds connection establishment — cancel it and the dial unblocks.
	// The caller performs the TLS handshake (with SNI = host) on the
	// returned conn.
	DialSite(ctx context.Context, host string, port int) (net.Conn, error)
}

// DirectDialer routes every site to the origin server.
type DirectDialer struct {
	Server *Server
}

// DialSite implements Dialer.
func (d DirectDialer) DialSite(ctx context.Context, host string, port int) (net.Conn, error) {
	return wire.DialTCP(ctx, d.Server.Addr())
}
