package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	o := New()
	c := o.Counter("test.ops.total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if o.Counter("test.ops.total") != c {
		t.Error("same name should return the same counter")
	}
	g := o.Gauge("test.conns.active")
	g.Set(7)
	g.Dec()
	g.Add(2)
	if got := g.Value(); got != 8 {
		t.Errorf("gauge = %d, want 8", got)
	}
}

// TestNilSafety: every instrument handed out by a nil Observer must no-op,
// so instrumented code paths never branch on observability being wired.
func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Counter("test.x").Inc()
	o.Gauge("test.x").Set(3)
	o.Histogram("test.x", nil).Observe(1)
	sp := o.StartSpan("s", "test.stage")
	sp.End()
	if got := o.Counter("test.x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if n := len(o.RecentSpans()); n != 0 {
		t.Errorf("nil observer has %d recent spans", n)
	}
	s := o.Snapshot()
	if len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Errorf("nil observer snapshot not empty: %+v", s)
	}
}

// TestHistogramBucketEdges pins the inclusive-upper-edge semantics: a value
// equal to a bound lands in that bound's bucket, just above it lands in the
// next, and values beyond the last bound land in overflow.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0, 1, 1.0001, 10, 10.5, 100, 100.0001, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	// Inclusive upper edges: le=1 gets {0, 1}; le=10 gets {1.0001, 10};
	// le=100 gets {10.5, 100}; overflow gets {100.0001, 5000}.
	want := []uint64{2, 2, 2}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket le=%v count = %d, want %d", b.UpperBound, b.Count, want[i])
		}
	}
	if s.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	if s.Sum != 0+1+1.0001+10+10.5+100+100.0001+5000 {
		t.Errorf("sum = %v", s.Sum)
	}
}

// TestHistogramBoundsNormalized: construction sorts and deduplicates the
// bounds, so callers cannot produce ambiguous bucket layouts.
func TestHistogramBoundsNormalized(t *testing.T) {
	h := newHistogram([]float64{100, 1, 10, 1})
	s := h.Snapshot()
	if len(s.Buckets) != 3 {
		t.Fatalf("buckets = %d, want 3 after dedup", len(s.Buckets))
	}
	for i, want := range []float64{1, 10, 100} {
		if s.Buckets[i].UpperBound != want {
			t.Errorf("bound[%d] = %v, want %v", i, s.Buckets[i].UpperBound, want)
		}
	}
}

// TestHistogramMergeAssociative: merging snapshots with different bucket
// layouts must be associative — (a+b)+c == a+(b+c) — because the campaign
// merges per-worker and per-service snapshots in nondeterministic
// groupings and still must produce identical aggregates.
func TestHistogramMergeAssociative(t *testing.T) {
	mk := func(bounds []float64, values ...float64) HistogramSnapshot {
		h := newHistogram(bounds)
		for _, v := range values {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	a := mk([]float64{1, 10}, 0.5, 5, 500)
	b := mk([]float64{2, 10, 50}, 1.5, 20, 9)
	c := mk([]float64{10}, 3, 1000, 7)

	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left, right)
	}
	if !reflect.DeepEqual(a.Merge(b), b.Merge(a)) {
		t.Error("merge not commutative")
	}
	if left.Count != 9 {
		t.Errorf("merged count = %d, want 9", left.Count)
	}
	// Equal bounds across inputs must sum at the shared bound.
	total := uint64(0)
	for _, bk := range left.Buckets {
		total += bk.Count
	}
	if total+left.Overflow != left.Count {
		t.Errorf("bucket counts %d + overflow %d != count %d", total, left.Overflow, left.Count)
	}
}

// TestSnapshotMergeAssociative covers the whole-observer merge the campaign
// aggregation uses.
func TestSnapshotMergeAssociative(t *testing.T) {
	mk := func(n int64) Snapshot {
		o := New(WithClock(func() time.Time { return time.Unix(0, 0) }))
		o.Counter("test.ops.total").Add(n)
		o.Gauge("test.level").Add(n)
		o.Histogram("test.size", []float64{1, 10}).Observe(float64(n))
		o.StartSpan("s", "test.stage").End()
		return o.Snapshot()
	}
	a, b, c := mk(1), mk(2), mk(3)
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("snapshot merge not associative:\n%+v\n%+v", left, right)
	}
	if left.Counters["test.ops.total"] != 6 {
		t.Errorf("merged counter = %d, want 6", left.Counters["test.ops.total"])
	}
	if left.Spans["test.stage"].Count != 3 {
		t.Errorf("merged span count = %d, want 3", left.Spans["test.stage"].Count)
	}
}

// TestSpans: spans aggregate per stage; the frozen clock pins durations.
func TestSpans(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	o := New(WithClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(2 * time.Millisecond)
		return now
	}))
	for i := 0; i < 3; i++ {
		sp := o.StartSpan("session-1", "test.stage")
		sp.End()
	}
	s := o.Snapshot()
	agg := s.Spans["test.stage"]
	if agg.Count != 3 {
		t.Fatalf("span count = %d, want 3", agg.Count)
	}
	if agg.Durations.Count != 3 {
		t.Errorf("duration observations = %d, want 3", agg.Durations.Count)
	}
	if agg.Durations.Sum != 6 { // 3 spans x 2ms
		t.Errorf("duration sum = %vms, want 6", agg.Durations.Sum)
	}
	rec := o.RecentSpans()
	if len(rec) != 3 || rec[0].Session != "session-1" || rec[0].Duration != 2*time.Millisecond {
		t.Errorf("recent spans = %+v", rec)
	}
}

// TestSnapshotJSONDeterministic: two observers fed identical values render
// byte-identical JSON — the property the fixed-seed campaign gate asserts.
func TestSnapshotJSONDeterministic(t *testing.T) {
	frozen := func() time.Time { return time.Unix(42, 0) }
	mk := func() []byte {
		o := New(WithClock(frozen))
		// Register in different orders; maps must still render sorted.
		keys := []string{"test.b", "test.a", "test.c"}
		for _, k := range keys {
			o.Counter(k).Add(3)
		}
		o.StartSpan("s1", "test.stage").End()
		o.Histogram("test.h", []float64{1, 5}).Observe(2)
		b, err := o.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	if string(a) != string(b) {
		t.Errorf("snapshot JSON differs across identical runs:\n%s\n%s", a, b)
	}
}

func TestHandler(t *testing.T) {
	o := New()
	o.Counter("test.requests.total").Add(9)
	srv := httptest.NewServer(HandlerFunc(o.Snapshot))
	defer srv.Close()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding handler body: %v", err)
	}
	if snap.Counters["test.requests.total"] != 9 {
		t.Errorf("handler counter = %d, want 9", snap.Counters["test.requests.total"])
	}
	post, err := cl.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

// TestConcurrentUse exercises the registry and instruments under the race
// detector.
func TestConcurrentUse(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Counter("test.n").Inc()
				o.Gauge("test.g").Add(1)
				o.Histogram("test.h", nil).Observe(float64(i))
				o.StartSpan("w", "test.stage").End()
				_ = o.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := o.Counter("test.n").Value(); got != 1600 {
		t.Errorf("counter = %d, want 1600", got)
	}
}
