// Package mitm implements the §7 TLS interception system: an HTTPS proxy in
// the style of the marketing-research provider the paper caught in the wild.
// The proxy terminates TLS for intercepted domains — re-generating an
// intermediate and leaf certificate on the fly under its own root — while
// tunneling whitelisted domains (certificate-pinned apps, Google's SUPL
// port, Facebook chat) untouched. It also provides the detector that
// classifies observed chains, reproducing Table 6.
package mitm

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/resilient"
	"tangledmass/internal/tlsnet"
)

// Proxy is a man-in-the-middle HTTPS proxy. It implements tlsnet.Dialer, so
// a measurement client pointed at it transparently probes through it — the
// same topology as the §7 handset whose tun interface routed all traffic to
// the marketing proxy. Construct with NewProxy.
type Proxy struct {
	ca           *certgen.Issued
	generator    *certgen.Generator
	upstream     tlsnet.Dialer
	whitelist    map[string]bool
	intermediate *certgen.Issued
	retry        *resilient.Retrier
	noLeafCache  bool

	mu        sync.Mutex
	leafCache map[string]*tls.Certificate
	stats     Stats
}

// Stats counts proxy activity.
type Stats struct {
	Intercepted  int64
	Tunneled     int64
	LeavesForged int64
	// UpstreamFailures counts origin dials that failed even after retries.
	UpstreamFailures int64
}

// Option configures a Proxy.
type Option func(*Proxy)

// WithWhitelist lists host:port targets to tunnel instead of intercept —
// the pinned apps, SUPL and chat endpoints of §7.
func WithWhitelist(targets []tlsnet.HostPort) Option {
	return func(p *Proxy) {
		for _, hp := range targets {
			p.whitelist[hp.String()] = true
		}
	}
}

// WithoutLeafCache forces a fresh forged leaf per connection — the baseline
// arm of the leaf-cache ablation.
func WithoutLeafCache() Option {
	return func(p *Proxy) { p.noLeafCache = true }
}

// WithRetryPolicy overrides the transient-upstream-dial retry policy — a
// proxy on a lossy uplink rides out refused connects and resets instead of
// dropping the handset's session. The default is 3 attempts with short
// backoff.
func WithRetryPolicy(r *resilient.Retrier) Option {
	return func(p *Proxy) { p.retry = r }
}

// NewProxy builds the proxy and its on-the-fly intermediate. ca is the
// proxy's signing root (the Reality Mine analogue), gen mints the
// intermediate and leaf certificates, and upstream reaches the real origin
// servers.
func NewProxy(ca *certgen.Issued, gen *certgen.Generator, upstream tlsnet.Dialer, opts ...Option) (*Proxy, error) {
	if ca == nil || gen == nil || upstream == nil {
		return nil, fmt.Errorf("mitm: proxy needs a CA, a generator and an upstream dialer")
	}
	p := &Proxy{
		ca:        ca,
		generator: gen,
		upstream:  upstream,
		whitelist: make(map[string]bool),
		leafCache: make(map[string]*tls.Certificate),
	}
	for _, opt := range opts {
		opt(p)
	}
	inter, err := gen.Intermediate(ca, ca.Cert.Subject.CommonName+" Interception Intermediate")
	if err != nil {
		return nil, fmt.Errorf("mitm: issuing intermediate: %w", err)
	}
	p.intermediate = inter
	if p.retry == nil {
		p.retry = resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 3,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
		}, 0)
	}
	return p, nil
}

// Whitelisted reports whether host:port is tunneled rather than intercepted.
func (p *Proxy) Whitelisted(host string, port int) bool {
	return p.whitelist[tlsnet.HostPort{Host: host, Port: port}.String()]
}

// Stats returns a snapshot of proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// DialSite implements tlsnet.Dialer. Whitelisted targets pass straight to
// the upstream; intercepted targets get a pipe whose far end speaks TLS with
// a forged certificate.
func (p *Proxy) DialSite(ctx context.Context, host string, port int) (net.Conn, error) {
	if p.Whitelisted(host, port) {
		p.mu.Lock()
		p.stats.Tunneled++
		p.mu.Unlock()
		return p.dialUpstream(ctx, host, port)
	}
	p.mu.Lock()
	p.stats.Intercepted++
	p.mu.Unlock()
	client, server := net.Pipe()
	// The proxied session outlives the dial: the handset's dial ctx bounds
	// connection establishment, not the relay's lifetime, so the serve
	// goroutine detaches from its cancelation (exactly as a real proxy's
	// accepted connection outlives the SYN).
	go p.serve(context.WithoutCancel(ctx), server, host, port)
	return client, nil
}

// serve terminates the client's TLS with a forged certificate, then relays
// the origin's application data through a second TLS session upstream.
func (p *Proxy) serve(ctx context.Context, conn net.Conn, host string, port int) {
	defer conn.Close()
	cert, err := p.forgedLeaf(host)
	if err != nil {
		return
	}
	tconn := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{*cert}})
	if err := tconn.Handshake(); err != nil {
		return
	}
	defer tconn.Close()

	// Fetch the origin's response over a real upstream TLS session. The
	// proxy does not need the origin to be trustworthy — it is the
	// interception point, exactly as in §7.
	up, err := p.dialUpstream(ctx, host, port)
	if err != nil {
		return
	}
	defer up.Close()
	upTLS := tls.Client(up, &tls.Config{ServerName: host, InsecureSkipVerify: true})
	if err := upTLS.Handshake(); err != nil {
		return
	}
	defer upTLS.Close()

	// Bidirectional relay; for the banner protocol one copy each way is
	// plenty, but a general relay keeps the proxy protocol-agnostic.
	// Copy errors just mean one side hung up; the deferred closes tear the
	// other side down.
	done := make(chan struct{}, 2)
	go func() { _, _ = io.Copy(tconn, upTLS); done <- struct{}{} }()
	go func() { _, _ = io.Copy(upTLS, tconn); done <- struct{}{} }()
	<-done
}

// dialUpstream reaches the origin under the proxy's retry policy, counting
// dials that fail even after retries.
func (p *Proxy) dialUpstream(ctx context.Context, host string, port int) (net.Conn, error) {
	var conn net.Conn
	err := p.retry.Do(ctx, func(int) error {
		c, err := p.upstream.DialSite(ctx, host, port)
		if err != nil {
			return err
		}
		conn = c
		return nil
	})
	if err != nil {
		p.mu.Lock()
		p.stats.UpstreamFailures++
		p.mu.Unlock()
		return nil, err
	}
	return conn, nil
}

// forgedLeaf returns (minting if needed) the forged certificate for host:
// a fresh leaf under the proxy's interception intermediate.
func (p *Proxy) forgedLeaf(host string) (*tls.Certificate, error) {
	if !p.noLeafCache {
		p.mu.Lock()
		if c, ok := p.leafCache[host]; ok {
			p.mu.Unlock()
			return c, nil
		}
		p.mu.Unlock()
	}
	leaf, err := p.generator.Leaf(p.intermediate, host,
		certgen.WithKeyName("mitm-forged-leaf-key"),
		certgen.WithValidity(certgen.Epoch.AddDate(0, -1, 0), certgen.Epoch.AddDate(1, 0, 0)))
	if err != nil {
		return nil, fmt.Errorf("mitm: forging leaf for %s: %w", host, err)
	}
	cert := &tls.Certificate{
		Certificate: [][]byte{leaf.Cert.Raw, p.intermediate.Cert.Raw},
		PrivateKey:  leaf.Key,
	}
	p.mu.Lock()
	p.stats.LeavesForged++
	if !p.noLeafCache {
		p.leafCache[host] = cert
	}
	p.mu.Unlock()
	return cert, nil
}
