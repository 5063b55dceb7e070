package population

import "testing"

// ScaledSessions is the session total Generate targets at scale: each
// model's quota is scaled and rounded on its own.
func ScaledSessions(scale float64) int {
	n := 0
	for _, q := range quotas {
		n += int(float64(q.sessions)*scale + 0.5)
	}
	return n
}

// PaperPopulation is paperPopulation for the external tests, so both share
// the one cached paper-scale fleet.
func PaperPopulation(t *testing.T) *Population { return paperPopulation(t) }
