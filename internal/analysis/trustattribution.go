package analysis

import (
	"sort"

	"tangledmass/internal/device"
	"tangledmass/internal/population"
	"tangledmass/internal/trusteval"
)

// TrustAttributionRow is one cell of the interception-attribution matrix: the
// number of sessions whose acceptance of a forged chain would be explained by
// Cause, split by the handset's store-tampering install channel and its
// platform API level.
type TrustAttributionRow struct {
	Cause    string // trusteval cause vocabulary: store-tampering, app-accept-all, ...
	Channel  string // device.Channel string: firmware, user, system
	APILevel int
	Sessions int
}

// CauseCount is a per-cause session total in the fixed trusteval.Causes()
// order.
type CauseCount struct {
	Cause    string
	Sessions int
}

// TrustAttribution explains which layer of the trust decision makes each
// session interceptable: the effective store was tampered with (a CA the
// firmware never shipped now anchors chains), or the session's app policy
// misvalidates (accept-all trust manager, allow-all hostname verifier,
// bypassed pins) — or neither, in which case the session is clean. The
// causes partition all sessions exactly: sum(ByCause) == TotalSessions and
// Exposed == TotalSessions − clean.
type TrustAttribution struct {
	TotalSessions int
	// Exposed counts sessions with a non-clean cause — the sessions an
	// interception proxy positioned on-path would succeed against.
	Exposed int
	ByCause []CauseCount
	Rows    []TrustAttributionRow
}

// sessionSignals derives the trust-evaluation signals the attribution model
// assumes for a session: store tampering from the handset's install channel,
// app misvalidation from the session's drawn policy.
func sessionSignals(s *population.Session) trusteval.Signals {
	return trusteval.Signals{
		StoreTampered: s.Handset.TamperChannel() != device.ChannelFirmware,
		AcceptAll:     s.Policy.AcceptAll,
		SkipHostname:  s.Policy.SkipHostname,
		BypassedPin:   s.Policy.BypassPins,
	}
}

type trustAttrKey struct {
	cause   trusteval.Cause
	channel device.Channel
	api     int
}

// ComputeTrustAttribution attributes every session's interceptability to the
// trust-decision layer that would fail it. It is the one fleet analysis
// that walks sessions: a handset's app policy rotates per session.
func ComputeTrustAttribution(p *population.Population) TrustAttribution {
	counts := map[trustAttrKey]int{}
	for _, s := range p.Sessions {
		counts[trustAttrKey{
			cause:   trusteval.Attribute(sessionSignals(s)),
			channel: s.Handset.TamperChannel(),
			api:     device.APILevel(s.Handset.Version),
		}]++
	}
	causeOrder := map[trusteval.Cause]int{}
	for i, c := range trusteval.Causes() {
		causeOrder[c] = i
	}
	out := TrustAttribution{ByCause: make([]CauseCount, len(trusteval.Causes()))}
	for i, c := range trusteval.Causes() {
		out.ByCause[i].Cause = string(c)
	}
	for k, n := range counts {
		out.TotalSessions += n
		out.ByCause[causeOrder[k.cause]].Sessions += n
		if k.cause != trusteval.CauseClean {
			out.Exposed += n
		}
		out.Rows = append(out.Rows, TrustAttributionRow{
			Cause:    string(k.cause),
			Channel:  k.channel.String(),
			APILevel: k.api,
			Sessions: n,
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		a, b := out.Rows[i], out.Rows[j]
		if a.Cause != b.Cause {
			return causeOrder[trusteval.Cause(a.Cause)] < causeOrder[trusteval.Cause(b.Cause)]
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		return a.APILevel < b.APILevel
	})
	return out
}
