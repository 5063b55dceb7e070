package trusteval

// Observability keys exported by the trust-evaluation engine. Every key is
// a package-prefixed compile-time constant (see the obs-key registry in
// README.md); the obskey lint rule rejects dynamically-built names.
const (
	// KeyEvals counts Evaluate calls.
	KeyEvals = "trusteval.eval.total"
	// KeyEvalAccepted counts evaluations whose verdict accepted the
	// connection.
	KeyEvalAccepted = "trusteval.eval.accepted"
	// KeyEvalRejected counts evaluations whose verdict rejected the
	// connection.
	KeyEvalRejected = "trusteval.eval.rejected"
	// KeyOverrides counts individual policy overrides applied (a single
	// evaluation can contribute several).
	KeyOverrides = "trusteval.override.total"
	// KeyCauseStoreTampering counts accepted evaluations attributed to
	// store tampering.
	KeyCauseStoreTampering = "trusteval.cause.store_tampering"
	// KeyCauseAcceptAll counts accepted evaluations attributed to an
	// accept-all trust manager.
	KeyCauseAcceptAll = "trusteval.cause.app_accept_all"
	// KeyCauseNoHostname counts accepted evaluations attributed to a
	// disabled hostname verifier.
	KeyCauseNoHostname = "trusteval.cause.app_no_hostname"
	// KeyCausePinBypass counts accepted evaluations attributed to a pin
	// bypass. The engine checks no pins, so it stays 0; it keeps the
	// snapshot's one counter per cause.
	KeyCausePinBypass = "trusteval.cause.pin_bypass"
	// KeyCauseClean counts accepted evaluations where every applicable
	// check passed.
	KeyCauseClean = "trusteval.cause.clean"
)
