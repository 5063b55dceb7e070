// Package wire is the transport core the repository's TCP services share: a
// listener that owns its connections, newline-delimited JSON serving, the
// server-side idempotency window, and the resilient client that talks to
// such a server. collect and notarynet add only their payload types and
// dispatch tables on top; tlsnet and tap add only a per-connection handler.
package wire

import (
	"net"
	"sync"
	"time"
)

// expired is a deadline already in the past: setting it as a read deadline
// makes a blocked read return at once.
var expired = time.Unix(1, 0)

// Listener accepts TCP connections and runs a handler on its own goroutine
// for each. It tracks every connection it has handed out, so Close can
// unblock them instead of waiting out their deadlines.
type Listener struct {
	ln net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[*conn]struct{}
	wg     sync.WaitGroup
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port).
// handle owns the connection while it runs; the listener closes it when
// handle returns. The error is net.Listen's, for the caller to wrap.
func Listen(addr string, handle func(net.Conn)) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, conns: make(map[*conn]struct{})}
	l.wg.Add(1)
	go l.accept(handle)
	return l, nil
}

// Addr returns the listening address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting, expires every pending read and waits for the
// in-flight handlers. A handler blocked reading — an idle JSON-lines
// connection, or a TLS handshake from a client that has sent nothing —
// returns at once; one serving a request finishes it and writes its
// response, and its next read fails. Close is idempotent.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for c := range l.conns {
		_ = c.TCPConn.SetReadDeadline(expired)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *Listener) accept(handle func(net.Conn)) {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{TCPConn: nc.(*net.TCPConn), l: l}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = nc.Close()
			continue
		}
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			defer c.Close()
			defer l.untrack(c)
			handle(c)
		}()
	}
}

func (l *Listener) untrack(c *conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// conn is an accepted connection whose deadline setters respect Close:
// once the listener is closing, setting a read deadline fails with
// net.ErrClosed and leaves the expired one in place, so a handler cannot
// re-arm a connection Close has just expired. The closed flag and the
// deadline share the listener's mutex for exactly that reason.
type conn struct {
	*net.TCPConn
	l *Listener
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	if c.l.closed {
		return net.ErrClosed
	}
	return c.TCPConn.SetReadDeadline(t)
}

func (c *conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.TCPConn.SetWriteDeadline(t)
}
