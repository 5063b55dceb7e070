package notarynet

import (
	"crypto/x509"
	"encoding/json"
	"fmt"

	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/wire"
)

// BatchIngester is the server's write path. A nil error is the sensor's
// acknowledgment, so a durable store returns only once the write is
// journaled; an error becomes a protocol-level error response, and the
// sensor's retry under the same idempotency ID is applied rather than
// absorbed. ObserveBatch takes that ID because a sharded store applies a
// batch shard by shard and remembers, per shard, which IDs it committed:
// a retry after a mid-batch failure lands exactly once per shard.
type BatchIngester interface {
	Observe(o notary.Observation) error
	ObserveCA(cert *x509.Certificate, port int) error
	ObserveBatch(id string, batch []notary.Observation) error
}

// View is the server's read path: the queries has_record, stats and
// validate are answered from it. A notaryshard.Cluster answers from its
// shard-ordered merged view, which is what keeps remote validation
// byte-identical at any shard count.
type View interface {
	HasRecord(cert *x509.Certificate) bool
	NumUnique() int
	NumUnexpired() int
	Sessions() int64
	ValidateOne(s *rootstore.Store) *notary.StoreReport
}

// Store is what a Server serves: a notaryshard.Cluster, in memory or
// durable, at any width.
type Store interface {
	View
	BatchIngester
}

// Server exposes a Notary over TCP. Construct with NewServer; Close stops
// it.
type Server struct {
	st  Store
	l   *wire.Listener
	obs *obs.Observer
	ids wire.Window
}

// NewServer starts a server on addr ("127.0.0.1:0" for an ephemeral port)
// that answers reads from st and applies writes to it. Options:
// WithObserver shares an observer (the default is a private one, so
// Snapshot always has something to serve).
func NewServer(st Store, addr string, opts ...Option) (*Server, error) {
	op := buildOptions(opts)
	observer := op.observer
	if observer == nil {
		observer = obs.New()
	}
	s := &Server{st: st, obs: observer}
	l, err := wire.Listen(addr, wire.Lines(s.serveLine, func() *obs.Gauge { return s.obs.Gauge(KeySensorsActive) }))
	if err != nil {
		return nil, fmt.Errorf("notarynet: listening on %s: %w", addr, err)
	}
	s.l = l
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.l.Addr() }

// Snapshot captures the server's current metrics: ingest/dedupe/query
// counters and the sensor-connection gauge. Tests assert against this
// instead of reaching into server internals.
func (s *Server) Snapshot() obs.Snapshot { return s.obs.Snapshot() }

// Close stops accepting and waits for in-flight requests to finish.
// Idle connections are unblocked, so Close does not wait out their read
// deadlines; a request already being served completes and is answered.
func (s *Server) Close() error { return s.l.Close() }

// serveLine answers one request line.
func (s *Server) serveLine(line []byte) any {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		s.obs.Counter(KeyBadRequest).Inc()
		return Response{Error: "bad request: " + err.Error()}
	}
	return s.dispatch(req)
}

// ingest applies one mutation under the request's idempotency ID: a
// re-sent request whose response was lost is acknowledged without being
// applied twice, and a failed ingest — one NOT durably recorded — releases
// the ID so the sensor's retry is applied rather than absorbed. n is how
// many observations the mutation carries.
func (s *Server) ingest(id, op string, n int, apply func() error) Response {
	dup, err := s.ids.Do(id, apply)
	switch {
	case dup:
		s.obs.Counter(KeyIngestDedupe).Inc()
	case err != nil:
		s.obs.Counter(KeyIngestRejected).Inc()
		return Response{Error: op + ": " + err.Error()}
	default:
		s.obs.Counter(KeyIngestTotal).Add(int64(n))
	}
	return Response{OK: true}
}

func (s *Server) dispatch(req Request) Response {
	switch req.Op {
	case "observe":
		chain, err := DecodeChain(req.Chain)
		if err != nil {
			return Response{Error: err.Error()}
		}
		if len(chain) == 0 {
			return Response{Error: "observe: empty chain"}
		}
		// Dedupe runs after decoding, so malformed retries still error.
		return s.ingest(req.ID, "observe", 1, func() error {
			return s.st.Observe(notary.Observation{Chain: chain, Port: req.Port})
		})

	case "observe_ca":
		cert, err := DecodeCert(req.Cert)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return s.ingest(req.ID, "observe_ca", 1, func() error { return s.st.ObserveCA(cert, req.Port) })

	case "observe_batch":
		if len(req.Batch) == 0 {
			return Response{Error: "observe_batch: empty batch"}
		}
		batch := make([]notary.Observation, len(req.Batch))
		for i, item := range req.Batch {
			chain, err := DecodeChain(item.Chain)
			if err != nil {
				return Response{Error: err.Error()}
			}
			if len(chain) == 0 {
				return Response{Error: fmt.Sprintf("observe_batch: empty chain at index %d", i)}
			}
			batch[i] = notary.Observation{Chain: chain, Port: item.Port}
		}
		resp := s.ingest(req.ID, "observe_batch", len(batch), func() error { return s.st.ObserveBatch(req.ID, batch) })
		if resp.OK {
			resp.Applied = len(batch)
		}
		return resp

	case "has_record":
		cert, err := DecodeCert(req.Cert)
		if err != nil {
			return Response{Error: err.Error()}
		}
		s.obs.Counter(KeyQueryTotal).Inc()
		return Response{OK: true, Recorded: s.st.HasRecord(cert)}

	case "stats":
		s.obs.Counter(KeyQueryTotal).Inc()
		return Response{
			OK:        true,
			Unique:    s.st.NumUnique(),
			Unexpired: s.st.NumUnexpired(),
			Sessions:  s.st.Sessions(),
		}

	case "validate":
		roots, err := DecodeChain(req.Roots)
		if err != nil {
			return Response{Error: err.Error()}
		}
		if len(roots) == 0 {
			return Response{Error: "validate: empty root set"}
		}
		name := req.StoreName
		if name == "" {
			name = "client store"
		}
		store := rootstore.New(name)
		store.AddAll(roots)
		rep := s.st.ValidateOne(store)
		counts := make([]int, len(roots))
		for i, r := range roots {
			counts[i] = rep.PerRoot[corpus.IdentityOf(r)]
		}
		s.obs.Counter(KeyQueryTotal).Inc()
		return Response{OK: true, Validated: rep.Validated, PerRootCount: counts}

	default:
		s.obs.Counter(KeyBadRequest).Inc()
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
