package collect

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"tangledmass/internal/obs"
)

// wire messages: {"op":"submit","report":{...}} and {"op":"summary"};
// responses: {"ok":true,...} with the summary inlined for "summary".
type request struct {
	Op string `json:"op"`
	// ID is a client-unique idempotency token: a submit re-sent after a
	// lost response keeps its ID and is acknowledged without counting twice.
	ID     string      `json:"id,omitempty"`
	Report *WireReport `json:"report,omitempty"`
}

type response struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}

// seenCap bounds the idempotency-ID window; retries follow failures within
// seconds, so a few thousand recent IDs is plenty.
const seenCap = 4096

// Server is the collection endpoint. Construct with NewServer.
type Server struct {
	ln  net.Listener
	obs *obs.Observer

	mu        sync.Mutex
	sum       Summary
	closed    bool
	reports   []WireReport
	wg        sync.WaitGroup
	keepAll   bool
	conns     map[net.Conn]bool
	seen      map[string]bool
	seenOrder []string
}

// NewServer starts a collector on addr ("127.0.0.1:0" for an ephemeral
// port). Options: WithKeepReports retains every submission; WithObserver
// shares an observer (the default is a private one, so Snapshot and the
// debug handler always have something to serve).
func NewServer(addr string, opts ...Option) (*Server, error) {
	op := buildOptions(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listening on %s: %w", addr, err)
	}
	observer := op.observer
	if observer == nil {
		observer = obs.New()
	}
	s := &Server{
		ln:      ln,
		obs:     observer,
		sum:     newSummary(),
		keepAll: op.keepReports,
		conns:   make(map[net.Conn]bool),
		seen:    make(map[string]bool),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Observer returns the server's observer — the daemons mount obs.Handler
// on it.
func (s *Server) Observer() *obs.Observer { return s.obs }

// Snapshot captures the server's current metrics: submit/dedupe/rejection
// counters and the active-connection gauge. Tests assert against this
// instead of reaching into server internals.
func (s *Server) Snapshot() obs.Snapshot { return s.obs.Snapshot() }

// Close stops the collector and freezes the aggregate. Requests already in
// flight get a clean "collector closed" protocol error instead of racing
// the shutdown; idle connections are unblocked so Close does not wait out
// their read deadlines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		// Expire pending reads now; handlers drain and exit.
		_ = conn.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Summary returns a copy of the live aggregate.
func (s *Server) Summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum.clone()
}

// Reports returns retained submissions (empty unless WithKeepReports).
func (s *Server) Reports() []WireReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WireReport, len(s.reports))
	copy(out, s.reports)
	return out
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// armRead sets the idle deadline for the next request, or reports false if
// the server has closed — the deadline and the closed flag share the mutex
// so Close cannot re-arm a connection it just expired.
func (s *Server) armRead(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	return conn.SetReadDeadline(time.Now().Add(2*time.Minute)) == nil
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	s.obs.Gauge(KeyConnsActive).Inc()
	defer func() {
		s.obs.Gauge(KeyConnsActive).Dec()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64<<10), 8<<20)
	enc := json.NewEncoder(conn)
	for {
		if !s.armRead(conn) {
			return
		}
		if !scanner.Scan() {
			return
		}
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var req request
		var resp response
		if err := json.Unmarshal(line, &req); err != nil {
			s.obs.Counter(KeyBadRequest).Inc()
			resp = response{Error: "bad request: " + err.Error()}
		} else {
			resp = s.dispatch(req)
		}
		if err := conn.SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
			return
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// duplicateLocked records id and reports whether it was already seen.
// Requests without an ID are never deduplicated. Callers hold s.mu.
func (s *Server) duplicateLocked(id string) bool {
	if id == "" {
		return false
	}
	if s.seen[id] {
		return true
	}
	s.seen[id] = true
	s.seenOrder = append(s.seenOrder, id)
	if len(s.seenOrder) > seenCap {
		delete(s.seen, s.seenOrder[0])
		s.seenOrder = s.seenOrder[1:]
	}
	return false
}

func (s *Server) dispatch(req request) response {
	switch req.Op {
	case "submit":
		if req.Report == nil {
			s.obs.Counter(KeyBadRequest).Inc()
			return response{Error: "submit: missing report"}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			// The aggregate froze at Close; refuse cleanly rather than
			// absorbing a submission the summary reader will never see.
			s.obs.Counter(KeySubmitRejected).Inc()
			return response{Error: "collector closed"}
		}
		// Acknowledge a re-sent submission whose response was lost without
		// double-counting it.
		if s.duplicateLocked(req.ID) {
			s.obs.Counter(KeySubmitDedupe).Inc()
			return response{OK: true}
		}
		s.obs.Counter(KeySubmitTotal).Inc()
		s.sum.absorb(*req.Report)
		if s.keepAll {
			s.reports = append(s.reports, *req.Report)
		}
		return response{OK: true}
	case "summary":
		s.obs.Counter(KeySummaryTotal).Inc()
		sum := s.Summary()
		return response{OK: true, Summary: &sum}
	default:
		s.obs.Counter(KeyBadRequest).Inc()
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
