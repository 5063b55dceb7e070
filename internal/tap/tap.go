package tap

import (
	"context"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"tangledmass/internal/notary"
	"tangledmass/internal/wire"
)

// Observer receives extracted chains. *notary.Notary satisfies it; tapd
// fans out to a remote notarynet service through the same interface.
type Observer interface {
	Observe(notary.Observation)
}

// Tap is a passive network monitor: a TCP relay that forwards every byte
// untouched while the stream parser lifts certificate chains out of the
// server-to-client direction and hands them to an Observer. Clients
// connect to Addr instead of the upstream; a real deployment mirrors
// packets instead.
//
// Close expires pending reads on the client legs, which the listener
// tracks. The upstream leg is not a tracked connection: a relay whose
// client leg expires half-closes its upstream, and Close completes once
// the upstream answers that half-close, as a TLS origin does. The upstream
// dial is bounded by wire.DialTCP's connect timeout, so an upstream that
// drops SYNs holds Close for at most that long.
type Tap struct {
	*wire.Listener
	upstream  string
	notary    Observer
	port      int
	extracted atomic.Int64
}

// New starts a tap on 127.0.0.1 (ephemeral port) relaying to upstream.
// Extracted chains are observed into n as traffic on logicalPort (the
// service port the monitored link carries, e.g. 443).
func New(upstream string, n Observer, logicalPort int) (*Tap, error) {
	t := &Tap{upstream: upstream, notary: n, port: logicalPort}
	var err error
	if t.Listener, err = wire.Listen("127.0.0.1:0", t.relay); err != nil {
		return nil, fmt.Errorf("tap: listening: %w", err)
	}
	return t, nil
}

// Extracted returns how many chains the tap has lifted so far.
func (t *Tap) Extracted() int64 { return t.extracted.Load() }

// relay forwards bytes both ways; the server→client leg runs through the
// stream parser.
func (t *Tap) relay(client net.Conn) {
	server, err := wire.DialTCP(context.Background(), t.upstream)
	if err != nil {
		return
	}
	defer server.Close()

	parser := &StreamParser{OnChain: func(chain []*x509.Certificate) {
		t.extracted.Add(1)
		t.notary.Observe(notary.Observation{Chain: chain, Port: t.port})
	}}

	done := make(chan struct{}, 2)
	// client → server: pure relay. Copy errors mean a side hung up; the
	// half-close tells the server the client is done sending.
	go func() {
		_, _ = io.Copy(server, client)
		_ = server.(*net.TCPConn).CloseWrite()
		done <- struct{}{}
	}()
	// server → client: relay + parse.
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := server.Read(buf)
			if n > 0 {
				// Parse first, then forward. A parse error (malformed or
				// unsupported TLS) drops the parser for the rest of the
				// connection but never disturbs the relay.
				if parser != nil && parser.Feed(buf[:n]) != nil {
					parser = nil
				}
				if _, werr := client.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		if cw, ok := client.(interface{ CloseWrite() error }); ok {
			_ = cw.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}
