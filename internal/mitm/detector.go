package mitm

import (
	"crypto/x509"
	"fmt"
	"sync"
	"time"

	"tangledmass/internal/certid"
	"tangledmass/internal/device"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notary"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/trusteval"
)

// Verdict classifies one probed chain.
type Verdict int

const (
	// Clean chains validate against the reference store and are known to
	// the Notary.
	Clean Verdict = iota
	// Intercepted chains terminate at a root outside every reference store
	// — the §7 signature (the marketing proxy's on-the-fly root).
	Intercepted
	// Suspicious chains validate but present a signer the Notary has never
	// seen for any service.
	Suspicious
	// Unreachable probes failed before a chain was captured.
	Unreachable
)

func (v Verdict) String() string {
	switch v {
	case Clean:
		return "clean"
	case Intercepted:
		return "intercepted"
	case Suspicious:
		return "suspicious"
	case Unreachable:
		return "unreachable"
	}
	return "unknown"
}

// Finding is the detector's output for one probe.
type Finding struct {
	Host    string
	Port    int
	Verdict Verdict
	// Reason is a one-line human-readable explanation.
	Reason string
	// SignerSubject is the subject of the chain's topmost certificate.
	SignerSubject string
	// Eval is the underlying trust-evaluation verdict (layer outcomes,
	// overrides, attribution cause) the classification was derived from.
	Eval trusteval.Verdict
	// AppAccepted reports whether an app running the detector's policy
	// would have proceeded — true for an intercepted chain only when the
	// policy misvalidates (e.g. an accept-all trust manager).
	AppAccepted bool
}

// Detector evaluates probe results the way §7's analysis did: against the
// official stores (is the signing root a real trust anchor?) and the Notary
// (has this signer ever been seen in honest traffic?).
type Detector struct {
	// Reference is the trusted-store union chains are expected to anchor in.
	Reference *rootstore.Store
	// Notary supplies the has-this-ever-been-seen signal. Optional.
	Notary *notary.Notary
	// At pins the validation clock.
	At time.Time
	// Policy optionally evaluates findings under an app validation policy;
	// the zero value is the strict platform default. The classification
	// (Intercepted/Clean) always reflects the analyst's view; the policy
	// only drives Finding.AppAccepted and the Eval overrides.
	Policy device.ValidationPolicy

	once sync.Once
	eng  *trusteval.Engine
}

// engine lazily builds the detector's trust-evaluation engine so the
// existing literal construction (&Detector{Reference: ..., At: ...}) keeps
// working.
func (d *Detector) engine() *trusteval.Engine {
	d.once.Do(func() { d.eng = trusteval.New(d.At) })
	return d.eng
}

// Inspect classifies one probe result. The chain judgment routes through
// the trust-evaluation engine with the reference union as the effective
// store: an anchored chain is one the engine's chain layer passes.
func (d *Detector) Inspect(p netalyzr.ProbeResult) Finding {
	f := Finding{Host: p.Target.Host, Port: p.Target.Port}
	if p.Err != nil || len(p.Chain) == 0 {
		f.Verdict = Unreachable
		f.Reason = "no chain captured"
		return f
	}
	top := p.Chain[len(p.Chain)-1]
	f.SignerSubject = certid.SubjectString(top)

	f.Eval = d.engine().Evaluate(trusteval.Request{
		Chain:  p.Chain,
		Host:   p.Target.Host,
		Store:  d.Reference,
		Policy: d.Policy,
	})
	f.AppAccepted = f.Eval.Accepted
	// The presented top may itself be an intermediate whose issuer is a
	// store root; the chain layer covers that. A chain is
	// interception-shaped when no path into the reference store exists.
	if f.Eval.Chain != trusteval.OutcomePass {
		f.Verdict = Intercepted
		f.Reason = fmt.Sprintf("chain terminates at %q, which is not in %s",
			issuerCN(top), d.Reference.Name())
		return f
	}
	if d.Notary != nil && !d.Notary.HasRecord(top) {
		f.Verdict = Suspicious
		f.Reason = "signer anchors in the store but the Notary has never observed it"
		return f
	}
	f.Verdict = Clean
	f.Reason = "chain anchors in " + d.Reference.Name()
	return f
}

func issuerCN(c *x509.Certificate) string {
	if c.Issuer.CommonName != "" {
		return c.Issuer.CommonName
	}
	return c.Issuer.String()
}

// InspectReport classifies every probe of a session report and splits them
// into Table 6's two columns.
func (d *Detector) InspectReport(r *netalyzr.Report) (intercepted, clean []Finding) {
	for _, p := range r.Probes {
		f := d.Inspect(p)
		switch f.Verdict {
		case Intercepted:
			intercepted = append(intercepted, f)
		case Clean:
			clean = append(clean, f)
		}
	}
	return intercepted, clean
}
