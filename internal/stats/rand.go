// Package stats provides the small statistical substrate used throughout the
// reproduction: deterministic seeded random sources, Zipf-like popularity
// sampling, empirical CDFs, and summary helpers.
//
// Everything in this package is deterministic given a seed. The paper's
// tables and figures are regenerated from fixed seeds, so no function here
// may consult the wall clock or global random state.
package stats

import (
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand.Rand so that
// every generator in the reproduction threads an explicit source instead of
// touching global state.
type Source struct {
	r *rand.Rand
}

// NewSource returns a deterministic source for the given seed.
func NewSource(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int64n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (s *Source) Int64n(n int64) int64 { return s.r.Int63n(n) }

// Float64 returns a pseudo-random float64 in [0.0, 1.0).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// PickWeighted returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. It panics if weights is empty or sums to a
// non-positive value.
func (s *Source) PickWeighted(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: PickWeighted with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: PickWeighted with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: PickWeighted with non-positive total weight")
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
