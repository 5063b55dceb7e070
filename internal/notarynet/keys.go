package notarynet

// Metric keys the notary service and its client emit (see the registry in
// README.md). Package-prefixed compile-time constants, per the obskey lint
// rule.
const (
	// KeyIngestTotal counts accepted (non-duplicate) chain observations,
	// leaf and CA submissions combined.
	KeyIngestTotal = "notarynet.ingest.total"
	// KeyIngestDedupe counts re-sent observations absorbed by the
	// idempotency window.
	KeyIngestDedupe = "notarynet.ingest.dedupe.hit"
	// KeyIngestRejected counts observations refused by the write path —
	// with a durable store, journal commits that failed before
	// acknowledgment (the sensor retries them).
	KeyIngestRejected = "notarynet.ingest.rejected"
	// KeyQueryTotal counts read-side requests (has_record, stats,
	// validate).
	KeyQueryTotal = "notarynet.query.total"
	// KeyBadRequest counts undecodable or unknown-op requests.
	KeyBadRequest = "notarynet.request.bad"
	// KeySensorsActive gauges currently connected sensors/clients.
	KeySensorsActive = "notarynet.sensors.active"
	// KeyClientDials counts transport dials the client performed.
	KeyClientDials = "notarynet.client.dial.total"
	// KeyClientDialErrors counts client dials that failed.
	KeyClientDialErrors = "notarynet.client.dial.error"
)
