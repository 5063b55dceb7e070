package stats

import (
	"encoding/json"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample of
// float64 values. Figure 3 of the paper plots ECDFs of per-root validation
// counts; this type produces both point evaluations and full step-series
// suitable for re-plotting.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample. The input slice is not modified.
func NewECDF(sample []float64) *ECDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X <= x), the fraction of sample points <= x.
// It returns 0 for an empty sample.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// ZeroFraction returns the fraction of sample points equal to zero. In
// Figure 3 this is the y-axis offset of each category: the share of roots
// that validated no Notary certificate at all.
func (e *ECDF) ZeroFraction() float64 {
	return e.At(0) - e.At(math.Nextafter(0, -1))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method. It returns 0 for an empty sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}

// Point is one step of an ECDF series.
type Point struct {
	X float64 `json:"x"` // sample value
	Y float64 `json:"y"` // cumulative fraction <= X
}

// Series returns the full step series of the ECDF: one point per distinct
// sample value, with Y the cumulative fraction at that value.
func (e *ECDF) Series() []Point {
	var pts []Point
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); {
		j := i
		for j < len(e.sorted) && e.sorted[j] == e.sorted[i] {
			j++
		}
		pts = append(pts, Point{X: e.sorted[i], Y: float64(j) / n})
		i = j
	}
	return pts
}

// MarshalJSON renders the ECDF as its step series plus the zero offset, the
// machine-readable form of a Figure 3 curve.
func (e *ECDF) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N          int     `json:"n"`
		ZeroOffset float64 `json:"zero_offset"`
		Series     []Point `json:"series"`
	}{N: e.Len(), ZeroOffset: e.ZeroFraction(), Series: e.Series()})
}
