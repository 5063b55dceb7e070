package trusteval

import (
	"crypto/x509"
	"errors"
	"time"

	"tangledmass/internal/certid"
	"tangledmass/internal/chain"
	"tangledmass/internal/corpus"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
)

// Override labels record which policy flag flipped a failing layer. They
// appear in Verdict.Overrides in layer order (chain, then hostname).
const (
	OverrideAcceptAll  = "chain:accept-all"
	OverrideNoHostname = "hostname:skip-verify"
)

// Verdict is the engine's structured answer for one connection.
type Verdict struct {
	// Chain and Hostname are the per-layer outcomes.
	Chain    Outcome
	Hostname Outcome
	// Accepted reports whether the app, under its policy, proceeds with
	// the connection: both layers passed or were overridden.
	Accepted bool
	// Overrides lists the policy overrides that fired, in layer order.
	Overrides []string
	// Cause attributes an accepted connection to the mechanism that
	// explains it; empty for rejected connections.
	Cause Cause
	// RootIDs are the device-store roots anchoring the presented chain,
	// in deterministic discovery order (nil when the chain does not
	// anchor).
	RootIDs []certid.Identity
	// Path is the canonical winning path for the host (leaf..root), set
	// only when both the chain and hostname layers genuinely passed.
	Path []*x509.Certificate
	// AnchoredInReference reports whether the chain also anchors in the
	// engine's reference stores; meaningful only when a reference was
	// configured and the chain layer passed.
	AnchoredInReference bool
	// ChainErr and HostErr carry the failing layer's diagnostic (also
	// when the failure was overridden).
	ChainErr error
	HostErr  error
}

// Engine evaluates connections. Construct with New; the zero value is not
// usable. An Engine keeps no state between evaluations beyond its
// counters and is safe for concurrent use.
type Engine struct {
	at        time.Time
	reference *rootstore.Store

	evals     *obs.Counter
	accepted  *obs.Counter
	rejected  *obs.Counter
	overrides *obs.Counter
	causes    map[Cause]*obs.Counter
}

// Option configures an Engine.
type Option func(*Engine)

// WithReference sets the official-store union used for store-tampering
// attribution: a chain that anchors on the device but not here is explained
// by a post-firmware install.
func WithReference(ref *rootstore.Store) Option {
	return func(e *Engine) { e.reference = ref }
}

// WithObserver attaches trusteval.* counters to o (nil is a no-op).
func WithObserver(o *obs.Observer) Option {
	return func(e *Engine) {
		e.evals = o.Counter(KeyEvals)
		e.accepted = o.Counter(KeyEvalAccepted)
		e.rejected = o.Counter(KeyEvalRejected)
		e.overrides = o.Counter(KeyOverrides)
		e.causes = map[Cause]*obs.Counter{
			CauseStoreTampering: o.Counter(KeyCauseStoreTampering),
			CauseAppAcceptAll:   o.Counter(KeyCauseAcceptAll),
			CauseAppNoHostname:  o.Counter(KeyCauseNoHostname),
			CausePinBypass:      o.Counter(KeyCausePinBypass),
			CauseClean:          o.Counter(KeyCauseClean),
		}
	}
}

// New returns an Engine evaluating validity at the instant at.
func New(at time.Time, opts ...Option) *Engine {
	e := &Engine{at: at}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// At returns the reference instant used for validity checks.
func (e *Engine) At() time.Time { return e.at }

// internChain interns the presented intermediates into the store's corpus
// and returns (leaf ref, intermediate refs).
func internChain(s *rootstore.Store, presented []*x509.Certificate) (corpus.Ref, []corpus.Ref) {
	c := s.Corpus()
	leaf := c.InternCert(presented[0])
	if len(presented) == 1 {
		return leaf, nil
	}
	inters := make([]corpus.Ref, len(presented)-1)
	for i, ic := range presented[1:] {
		inters[i] = c.InternCert(ic)
	}
	return leaf, inters
}

// Evaluate runs the full trust decision for one connection and returns its
// Verdict. The layers run in client order — chain building against the
// effective store, then hostname verification (including path name
// constraints) — with the app policy applied as recorded
// overrides, never by skipping the underlying check: a forged chain that
// an accept-all app "validates" still reports its chain layer as
// overridden, not passed.
func (e *Engine) Evaluate(req Request) Verdict {
	e.evals.Inc()
	var v Verdict
	if len(req.Chain) == 0 {
		// No handshake evidence: nothing to judge, nothing accepted.
		v.ChainErr = ErrNoPresentedChain
		e.rejected.Inc()
		return v
	}
	leaf := req.Chain[0]
	leafRef, inters := internChain(req.Store, req.Chain)
	ver := chain.NewVerifierFromStore(req.Store, inters, e.at)
	v.RootIDs = ver.ValidatingRootIdentitiesRef(leafRef)
	chainOK := len(v.RootIDs) > 0

	var sig Signals
	switch {
	case chainOK:
		v.Chain = OutcomePass
		if e.reference != nil {
			refLeaf, refInters := internChain(e.reference, req.Chain)
			refVer := chain.NewVerifierFromStore(e.reference, refInters, e.at)
			v.AnchoredInReference = len(refVer.ValidatingRootIdentitiesRef(refLeaf)) > 0
			sig.StoreTampered = !v.AnchoredInReference
		}
	case req.Policy.AcceptAll:
		v.Chain = OutcomeOverridden
		v.ChainErr = chain.ErrNoChain
		v.Overrides = append(v.Overrides, OverrideAcceptAll)
		sig.AcceptAll = true
	default:
		v.Chain = OutcomeFail
		v.ChainErr = chain.ErrNoChain
	}

	v.HostErr = chain.LeafCoversHost(leaf, req.Host)
	hostOK := v.HostErr == nil
	if hostOK && chainOK {
		path, err := ver.VerifyForHost(leaf, req.Host)
		if errors.Is(err, chain.ErrNameConstraint) {
			hostOK = false
			v.HostErr = err
		} else if err == nil {
			v.Path = path
		}
	}
	switch {
	case hostOK:
		v.Hostname = OutcomePass
	case req.Policy.SkipHostname:
		v.Hostname = OutcomeOverridden
		v.Overrides = append(v.Overrides, OverrideNoHostname)
		sig.SkipHostname = true
	default:
		v.Hostname = OutcomeFail
	}

	v.Accepted = v.Chain.Accepted() && v.Hostname.Accepted()
	if n := len(v.Overrides); n > 0 {
		e.overrides.Add(int64(n))
	}
	if v.Accepted {
		v.Cause = Attribute(sig)
		e.accepted.Inc()
		e.causes[v.Cause].Inc()
	} else {
		e.rejected.Inc()
	}
	return v
}

// ErrNoPresentedChain marks an evaluation that received no handshake
// evidence at all.
var ErrNoPresentedChain = errors.New("trusteval: no presented chain")
