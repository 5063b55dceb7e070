package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"tangledmass/internal/obs"
	"tangledmass/internal/wire"
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

// errClosed refuses a submission after Close froze the aggregate.
var errClosed = errors.New("collector closed")

// Server is the collection endpoint. Construct with NewServer.
type Server struct {
	l   *wire.Listener
	obs *obs.Observer
	ids wire.Window

	mu      sync.Mutex
	sum     Summary
	closed  bool
	reports []WireReport
	keepAll bool
}

// NewServer starts a collector on addr ("127.0.0.1:0" for an ephemeral
// port). Options: WithKeepReports retains every submission; WithObserver
// shares an observer (the default is a private one, so Snapshot and the
// debug handler always have something to serve).
func NewServer(addr string, opts ...Option) (*Server, error) {
	op := buildOptions(opts)
	observer := op.observer
	if observer == nil {
		observer = obs.New()
	}
	s := &Server{obs: observer, sum: newSummary(), keepAll: op.keepReports}
	l, err := wire.Listen(addr, wire.Lines(s.serveLine, func() *obs.Gauge { return s.obs.Gauge(KeyConnsActive) }))
	if err != nil {
		return nil, fmt.Errorf("collect: listening on %s: %w", addr, err)
	}
	s.l = l
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.l.Addr() }

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
	s.closed = true
	s.mu.Unlock()
	return s.l.Close()
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

// serveLine answers one request line.
func (s *Server) serveLine(line []byte) any {
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		s.obs.Counter(KeyBadRequest).Inc()
		return response{Error: "bad request: " + err.Error()}
	}
	return s.dispatch(req)
}

func (s *Server) dispatch(req request) response {
	switch req.Op {
	case "submit":
		if req.Report == nil {
			s.obs.Counter(KeyBadRequest).Inc()
			return response{Error: "submit: missing report"}
		}
		// A re-sent submission whose response was lost is acknowledged
		// without counting twice.
		dup, err := s.ids.Do(req.ID, func() error { return s.absorb(*req.Report) })
		switch {
		case dup:
			s.obs.Counter(KeySubmitDedupe).Inc()
		case err != nil:
			s.obs.Counter(KeySubmitRejected).Inc()
			return response{Error: err.Error()}
		default:
			s.obs.Counter(KeySubmitTotal).Inc()
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

// absorb folds one submission into the aggregate. After Close it refuses
// instead: the summary reader will never see a submission absorbed then.
func (s *Server) absorb(w WireReport) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.sum.absorb(w)
	if s.keepAll {
		s.reports = append(s.reports, w)
	}
	return nil
}
