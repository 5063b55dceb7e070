package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	d := newDist(samples)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := d.quantile(tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := d.beyond(d.quantile(0.99)); got != 1 {
		t.Errorf("beyond(p99) = %d, want 1", got)
	}
	if samples[0] != 100 {
		t.Error("newDist reordered the caller's slice")
	}
}

func TestQuantileIsAMeasuredValue(t *testing.T) {
	// Bucketed estimates interpolate; nearest rank must return a sample.
	d := newDist([]float64{0.2, 0.3, 40, 41})
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		v := d.quantile(q)
		found := false
		for _, s := range d.sorted {
			found = found || s == v
		}
		if !found {
			t.Errorf("quantile(%v) = %v is not a sample", q, v)
		}
	}
	if got := d.median(); got != 0.3 {
		t.Errorf("median = %v, want 0.3", got)
	}
}

func TestQuantileTiesAndEmpty(t *testing.T) {
	d := newDist([]float64{5, 5, 5, 5, 9})
	if got := d.quantile(0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := d.beyond(5); got != 1 {
		t.Errorf("beyond(5) = %d, want 1", got)
	}
	if !math.IsNaN(newDist(nil).quantile(0.5)) {
		t.Error("empty distribution should yield NaN")
	}
}
