// Package trusteval is the single trust-evaluation engine behind every
// validation decision in the pipeline. The paper's core question — "what
// does this device actually trust?" — was previously answered in four
// disconnected places (netalyzr probe validation, the MITM detector, pin
// evaluation, and campaign-side checks), all modelling only store-level
// trust. Okara and "Danger is My Middle Name" show real interception
// outcomes are co-determined by app-level misvalidation: accept-all trust
// managers, disabled hostname verification, pinning bypass.
//
// The engine takes one connection's evidence — presented chain, requested
// host and port, the device's effective store, and the validating app's
// policy — and returns a structured Verdict: the outcome of its two layers
// (chain, hostname), which policy overrides fired, and a single
// attribution cause. Causes partition outcomes exactly: each accepted
// connection has one cause, so per-cause counts sum to the total — the
// invariant the analysis attribution aggregate is built on.
//
// The engine checks no pins, so a live verdict is never attributed to
// CausePinBypass. That cause comes from the fleet's ground truth
// (device.ValidationPolicy.BypassPins), which the offline session
// attribution in package analysis passes to Attribute.
package trusteval

import (
	"crypto/x509"

	"tangledmass/internal/device"
	"tangledmass/internal/rootstore"
)

// Outcome is the result of one validation layer.
type Outcome int

const (
	// OutcomeSkipped means the layer did not run: no chain was captured.
	OutcomeSkipped Outcome = iota
	// OutcomePass means the layer's check succeeded on its own.
	OutcomePass
	// OutcomeFail means the check failed and the policy let it stand.
	OutcomeFail
	// OutcomeOverridden means the check failed but the app's validation
	// policy accepted anyway — the misvalidation the attribution causes
	// name.
	OutcomeOverridden
)

func (o Outcome) String() string {
	switch o {
	case OutcomePass:
		return "pass"
	case OutcomeFail:
		return "fail"
	case OutcomeOverridden:
		return "overridden"
	}
	return "skipped"
}

// Accepted reports whether the layer lets the connection proceed: a pass,
// an override, or a skipped (inapplicable) check.
func (o Outcome) Accepted() bool { return o != OutcomeFail }

// Cause attributes one accepted connection to the mechanism that explains
// it. The values are the serialized vocabulary of the attribution analysis.
type Cause string

const (
	// CauseStoreTampering: the chain anchors in the device's effective
	// store but not in the official reference stores — a user- or
	// root-installed CA (§6/§7) made the device trust it.
	CauseStoreTampering Cause = "store-tampering"
	// CauseAppAcceptAll: the chain anchors nowhere on the device; an
	// accept-all trust manager validated it anyway.
	CauseAppAcceptAll Cause = "app-accept-all"
	// CauseAppNoHostname: the leaf does not cover the requested host; a
	// disabled hostname verifier accepted it anyway.
	CauseAppNoHostname Cause = "app-no-hostname"
	// CausePinBypass: the app is a pin-bypassed build. Only offline
	// session attribution assigns it; the engine checks no pins.
	CausePinBypass Cause = "pin-bypass"
	// CauseClean: every applicable check genuinely passed.
	CauseClean Cause = "clean"
)

// Causes returns the attribution vocabulary in its fixed precedence order
// (the order Attribute consults signals in). Deterministic artifacts
// iterate this, never a map.
func Causes() []Cause {
	return []Cause{CauseStoreTampering, CauseAppAcceptAll, CauseAppNoHostname, CausePinBypass, CauseClean}
}

// Signals are the boolean facts about one accepted connection that
// attribution consults: which trust-relaxing mechanism was (or, for
// offline session attribution, would be) exercised.
type Signals struct {
	// StoreTampered: the anchoring root is absent from the reference
	// stores — trust came from a post-firmware install.
	StoreTampered bool
	// AcceptAll: an accept-all trust manager overrode a failed chain.
	AcceptAll bool
	// SkipHostname: a disabled hostname verifier overrode a mismatch.
	SkipHostname bool
	// BypassedPin: the app ignores pin mismatches. Set from the fleet's
	// ground truth (device.ValidationPolicy.BypassPins); Evaluate never
	// sets it.
	BypassedPin bool
}

// Attribute reduces a connection's signals to the single cause that
// explains its acceptance. Precedence is fixed — store tampering over
// accept-all over hostname over pin bypass — so that causes partition
// outcomes exactly; summing per-cause counts reproduces the total. The
// live engine and the offline analysis aggregate share this function,
// which is what keeps probe verdicts and session attribution consistent.
func Attribute(s Signals) Cause {
	switch {
	case s.StoreTampered:
		return CauseStoreTampering
	case s.AcceptAll:
		return CauseAppAcceptAll
	case s.SkipHostname:
		return CauseAppNoHostname
	case s.BypassedPin:
		return CausePinBypass
	}
	return CauseClean
}

// Request is one connection's evidence, handed to Engine.Evaluate.
type Request struct {
	// Chain is the presented certificate chain, leaf first. Empty means
	// the handshake never produced one (connection error).
	Chain []*x509.Certificate
	// Host names the requested endpoint and drives the hostname layer.
	Host string
	// Store is the device's effective trust set (system + user − disabled).
	Store *rootstore.Store
	// Policy is the validating app's behaviour. The zero value is the
	// strict platform default.
	Policy device.ValidationPolicy
}
