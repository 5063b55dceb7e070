package wire

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"time"

	"tangledmass/internal/obs"
	"tangledmass/internal/resilient"
)

// Config configures a Client. Zero fields take the defaults noted.
type Config struct {
	// Name prefixes the client's errors ("collect", "notarynet").
	Name string
	// Timeout bounds one round trip. Zero means one minute.
	Timeout time.Duration
	// Dial opens a transport. Nil means DialTCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Retry is the retry policy. Nil means 4 attempts with short jittered
	// backoff, reporting through Observer.
	Retry    *resilient.Retrier
	Observer *obs.Observer
	// Breaker, when set, gates every attempt. Transport failures trip it;
	// protocol rejections over a healthy connection do not.
	Breaker *resilient.Breaker
	// Dialed, when set, is called after every dial with its error, so the
	// owning package can count dials in its own metric namespace.
	Dialed func(err error)
}

// Client is a resilient newline-delimited JSON client. Sequential use
// only: the protocol answers each request line with one response line.
// Transient failures — refused connects, resets, timeouts, truncated or
// corrupted responses — are retried under the retry policy on a fresh
// connection. After any failure mid-exchange the scanner may hold half a
// response to an earlier request, so the transport is marked broken and
// never reused; that is what keeps a retry from reading a stale response
// for the wrong request.
type Client struct {
	cfg   Config
	addr  string
	nonce string
	seq   uint64

	// out holds the request line being sent and enc encodes into it: a
	// request is encoded whole before any byte reaches the transport. out
	// keeps its capacity, so a long-lived client encodes without garbage.
	out bytes.Buffer
	enc *json.Encoder

	conn    net.Conn
	scanner *bufio.Scanner
	broken  bool
}

// Dial connects to addr. The initial connect already runs under the retry
// policy, bounded by ctx.
func Dial(ctx context.Context, addr string, cfg Config) (*Client, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Minute
	}
	if cfg.Dial == nil {
		cfg.Dial = DialTCP
	}
	if cfg.Retry == nil {
		cfg.Retry = resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 4,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		}, 0).WithObserver(cfg.Observer)
	}
	c := &Client{cfg: cfg, addr: addr, nonce: newNonce()}
	c.enc = json.NewEncoder(&c.out)
	if err := cfg.Retry.Do(ctx, func(int) error { return c.connect(ctx) }); err != nil {
		return nil, err
	}
	return c, nil
}

// DialTCP is the default transport: TCP with a 10s connect timeout, so an
// unresponsive peer cannot hold a dial forever. Fault injectors wrap it.
func DialTCP(ctx context.Context, addr string) (net.Conn, error) {
	d := &net.Dialer{Timeout: 10 * time.Second}
	return d.DialContext(ctx, "tcp", addr)
}

// newNonce labels a client's idempotency IDs. Uniqueness, not
// unpredictability, is what matters; an entropy-pool failure is not
// recoverable.
func newNonce() string {
	b := make([]byte, 6)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("wire: reading nonce entropy: %v", err))
	}
	return hex.EncodeToString(b)
}

// NextID returns a fresh idempotency ID: the client's nonce and a sequence
// number. Stamp one on each logical request; its retries keep it, which is
// what lets the server's Window recognise them.
func (c *Client) NextID() string {
	id := c.nonce + "-" + strconv.FormatUint(c.seq, 10)
	c.seq++
	return id
}

// connect establishes a fresh transport, replacing any broken one.
func (c *Client) connect(ctx context.Context) error {
	conn, err := c.cfg.Dial(ctx, c.addr)
	if c.cfg.Dialed != nil {
		c.cfg.Dialed(err)
	}
	if err != nil {
		return fmt.Errorf("%s: dialing %s: %w", c.cfg.Name, c.addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, MaxLine)
	c.conn, c.scanner, c.broken = conn, sc, false
	return nil
}

// markBroken poisons the transport after a mid-exchange failure so the
// next attempt starts on a fresh connection.
func (c *Client) markBroken() {
	c.broken = true
	if c.conn != nil {
		_ = c.conn.Close()
	}
}

// Close releases the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Call sends req on c and returns its decoded response, reconnecting and
// retrying transient failures within ctx. status reads a response's
// protocol-level outcome. A rejection arrives over a healthy transport, so
// it is permanent: it is not retried, it does not trip the breaker, and
// the connection stays usable.
func Call[R any](ctx context.Context, c *Client, req any, status func(R) (ok bool, msg string)) (R, error) {
	var resp R
	err := c.cfg.Retry.Do(ctx, func(int) error {
		if err := c.cfg.Breaker.Allow(); err != nil {
			return err
		}
		line, err := c.exchange(ctx, req)
		if err == nil {
			var r R
			if err = json.Unmarshal(line, &r); err != nil {
				// Corrupted or truncated line: the framing is no longer
				// trustworthy.
				c.markBroken()
				err = resilient.MarkTransient(fmt.Errorf("%s: decoding response: %w", c.cfg.Name, err))
			} else if ok, msg := status(r); !ok {
				err = resilient.MarkPermanent(fmt.Errorf("%s: server error: %s", c.cfg.Name, msg))
			}
			resp = r
		}
		if resilient.Classify(err) == resilient.Transient {
			c.cfg.Breaker.Record(err)
		} else {
			c.cfg.Breaker.Record(nil)
		}
		return err
	})
	return resp, err
}

// exchange writes one request line and reads one response line on the
// current transport, reconnecting first if it is broken. The request is
// encoded before anything is sent: one that cannot be encoded, or whose
// line would exceed MaxLine (the server would drop the connection on it),
// fails permanently with nothing written and the transport untouched. The
// returned line is valid until the next exchange.
func (c *Client) exchange(ctx context.Context, req any) ([]byte, error) {
	c.out.Reset()
	if err := c.enc.Encode(req); err != nil {
		return nil, resilient.MarkPermanent(fmt.Errorf("%s: encoding request: %w", c.cfg.Name, err))
	}
	if n := c.out.Len(); n > MaxLine {
		return nil, resilient.MarkPermanent(fmt.Errorf("%s: request line of %d bytes exceeds the %d-byte limit", c.cfg.Name, n, MaxLine))
	}
	if c.broken || c.conn == nil {
		if err := c.connect(ctx); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.markBroken()
		return nil, fmt.Errorf("%s: setting deadline: %w", c.cfg.Name, err)
	}
	if _, err := c.conn.Write(c.out.Bytes()); err != nil {
		c.markBroken()
		return nil, fmt.Errorf("%s: sending request: %w", c.cfg.Name, err)
	}
	if !c.scanner.Scan() {
		err := c.scanner.Err()
		c.markBroken()
		if err != nil {
			return nil, fmt.Errorf("%s: reading response: %w", c.cfg.Name, err)
		}
		return nil, resilient.MarkTransient(fmt.Errorf("%s: connection closed by server", c.cfg.Name))
	}
	return c.scanner.Bytes(), nil
}
