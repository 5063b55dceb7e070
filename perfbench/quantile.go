package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a latency distribution summarized from raw samples, never from
// histogram buckets: every quantile is one of the measured values.
type dist struct {
	sorted []float64
}

// newDist copies and sorts the samples.
func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s}
}

// n is the sample count.
func (d dist) n() int { return len(d.sorted) }

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q·n samples at or below it. An empty distribution yields NaN.
func (d dist) quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return d.sorted[k]
}

// beyond counts the samples strictly greater than v.
func (d dist) beyond(v float64) int {
	i := sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i] > v })
	return len(d.sorted) - i
}

// median is the 0.5 quantile.
func (d dist) median() float64 { return d.quantile(0.5) }

// line renders one quantile with its sample count and the number of
// samples beyond it, so a reader can tell a p99 from a maximum.
func (d dist) line(name string, q float64, unit string) string {
	v := d.quantile(q)
	return fmt.Sprintf("%-34s %12.4f %-5s n=%d beyond=%d", name, v, unit, d.n(), d.beyond(v))
}
