package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"time"

	"tangledmass/internal/obs"
)

const (
	// MaxLine bounds one protocol line, newline included, in either
	// direction. Line buffers start at bufio's 4 KiB and grow to the
	// longest line a connection carries: chains of a few certificates take
	// a few KiB; a notarynet validate request carrying a 262-root store
	// takes far more.
	MaxLine = 8 << 20
	// idleTimeout reaps a connection that sends no request for this long.
	// Sensors stream for long periods and analysis clients are short-lived;
	// either way an abandoned connection goes.
	idleTimeout = 2 * time.Minute
	// writeTimeout bounds writing one response line.
	writeTimeout = time.Minute
)

// Lines returns a connection handler for a newline-delimited JSON service.
// serve answers one request line with the value to encode as its response.
// Blank lines are skipped; every other line gets exactly one response
// line, so a client can pipeline. active resolves the gauge of connected
// clients, which the owning package names in its own metric namespace.
func Lines(serve func(line []byte) any, active func() *obs.Gauge) func(net.Conn) {
	return func(conn net.Conn) {
		g := active()
		g.Inc()
		defer g.Dec()
		scanner := bufio.NewScanner(conn)
		scanner.Buffer(nil, MaxLine)
		enc := json.NewEncoder(conn)
		for conn.SetReadDeadline(time.Now().Add(idleTimeout)) == nil && scanner.Scan() {
			line := scanner.Bytes()
			if len(line) == 0 {
				continue
			}
			resp := serve(line)
			if conn.SetWriteDeadline(time.Now().Add(writeTimeout)) != nil || enc.Encode(resp) != nil {
				return
			}
		}
	}
}
