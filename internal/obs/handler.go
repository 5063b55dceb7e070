package obs

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// HandlerFunc returns an expvar-style debug handler that serves fn's
// snapshot as indented JSON, calling fn per request. fn is an Observer's
// Snapshot method or a composite source, like the sharded notary cluster
// merging router and per-shard metrics. The daemons mount it on their
// -debug listener; `make metrics-smoke` scrapes it as a liveness gate.
func HandlerFunc(fn func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body, err := fn().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// The client is a scraper; a failed write is its problem to retry.
		_, _ = w.Write(body)
	})
}

// ServeDebug starts the debug endpoint on addr in a background goroutine,
// mounting HandlerFunc at /debug/vars (and at / for curl convenience). It
// returns the bound listener — callers print its address and close it on
// shutdown. The server dies with the listener; scrape errors are the
// scraper's problem.
func ServeDebug(addr string, o *Observer) (net.Listener, error) {
	return ServeDebugFunc(addr, o.Snapshot)
}

// ServeDebugFunc is ServeDebug over a snapshot function instead of a
// single Observer.
func ServeDebugFunc(addr string, fn func() Snapshot) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on debug addr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", HandlerFunc(fn))
	mux.Handle("/debug/vars", HandlerFunc(fn))
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
