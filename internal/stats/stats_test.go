package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("sources with same seed diverged at step %d", i)
		}
	}
}

func TestPickWeighted(t *testing.T) {
	src := NewSource(1)
	weights := []float64{0, 1, 0}
	for i := 0; i < 100; i++ {
		if got := src.PickWeighted(weights); got != 1 {
			t.Fatalf("PickWeighted with singleton mass picked %d", got)
		}
	}
}

func TestPickWeightedDistribution(t *testing.T) {
	src := NewSource(2)
	weights := []float64{3, 1}
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[src.PickWeighted(weights)]++
	}
	frac := float64(counts[0]) / n
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("weight-3 arm frequency %.3f, want ~0.75", frac)
	}
}

func TestPickWeightedPanics(t *testing.T) {
	src := NewSource(1)
	for _, tc := range [][]float64{nil, {}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PickWeighted(%v) did not panic", tc)
				}
			}()
			src.PickWeighted(tc)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(100, 1.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(3)
	counts := make([]int, 100)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Sample(src)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Rank 0 should hold roughly Mass(0) of the draws.
	want := z.Mass(0)
	got := float64(counts[0]) / n
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("rank0 frequency %.3f, want %.3f +- 0.02", got, want)
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1, 0); err == nil {
		t.Error("NewZipf(0) should error")
	}
	if _, err := NewZipf(10, -1, 0); err == nil {
		t.Error("NewZipf with negative s should error")
	}
	if _, err := NewZipf(10, 1, -1); err == nil {
		t.Error("NewZipf with negative q should error")
	}
}

func TestZipfMassSumsToOne(t *testing.T) {
	z, err := NewZipf(37, 0.9, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := 0; i < z.N(); i++ {
		total += z.Mass(i)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("masses sum to %v, want 1", total)
	}
	if z.Mass(-1) != 0 || z.Mass(z.N()) != 0 {
		t.Fatal("out-of-range mass should be 0")
	}
}

func TestZipfSampleInRange(t *testing.T) {
	// Property: samples are always valid ranks.
	err := quick.Check(func(seed int64) bool {
		z, err := NewZipf(17, 1.0, 0.5)
		if err != nil {
			return false
		}
		src := NewSource(seed)
		for i := 0; i < 100; i++ {
			r := z.Sample(src)
			if r < 0 || r >= 17 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{0, 0, 1, 3, 3, 10})
	if e.Len() != 6 {
		t.Fatalf("Len = %d, want 6", e.Len())
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{-1, 0}, {0, 2.0 / 6}, {0.5, 2.0 / 6}, {1, 3.0 / 6},
		{3, 5.0 / 6}, {9.99, 5.0 / 6}, {10, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if zf := e.ZeroFraction(); math.Abs(zf-2.0/6) > 1e-12 {
		t.Errorf("ZeroFraction = %v, want %v", zf, 2.0/6)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 || e.ZeroFraction() != 0 || e.Quantile(0.5) != 0 {
		t.Fatal("empty ECDF should return zeros")
	}
	if len(e.Series()) != 0 {
		t.Fatal("empty ECDF should have empty series")
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewECDF mutated its input")
	}
}

func TestECDFSeries(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2, 5})
	s := e.Series()
	want := []Point{{1, 0.5}, {2, 0.75}, {5, 1}}
	if len(s) != len(want) {
		t.Fatalf("series length %d, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("series[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if q := e.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", q)
	}
	if q := e.Quantile(0); q != 1 {
		t.Errorf("Quantile(0) = %v, want 1", q)
	}
	if q := e.Quantile(1); q != 4 {
		t.Errorf("Quantile(1) = %v, want 4", q)
	}
}

func TestECDFMonotonic(t *testing.T) {
	// Property: ECDF is monotone non-decreasing and bounded in [0,1].
	err := quick.Check(func(sample []float64, probe []float64) bool {
		e := NewECDF(sample)
		prev := -1.0
		// Probe at sorted positions.
		vals := append([]float64{}, probe...)
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				if vals[j] < vals[i] {
					vals[i], vals[j] = vals[j], vals[i]
				}
			}
		}
		for _, x := range vals {
			if math.IsNaN(x) {
				continue
			}
			y := e.At(x)
			if y < 0 || y > 1 || y < prev {
				return false
			}
			prev = y
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
