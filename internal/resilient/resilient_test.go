package resilient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"tangledmass/internal/obs"
)

// fakeClock is a manually advanced clock: Sleep moves time forward
// instantly, so retry schedules run in microseconds and deterministically.
type fakeClock struct {
	now    time.Time
	slept  []time.Duration
	asleep time.Duration
}

func (f *fakeClock) clock() Clock {
	return Clock{
		Now: func() time.Time { return f.now },
		Sleep: func(d time.Duration) {
			f.slept = append(f.slept, d)
			f.asleep += d
			f.now = f.now.Add(d)
		},
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{os.ErrDeadlineExceeded, Transient},
		{&net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}, Transient},
		{io.EOF, Transient},
		{io.ErrUnexpectedEOF, Transient},
		{syscall.ECONNRESET, Transient},
		{&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, Transient},
		{syscall.EPIPE, Transient},
		{fmt.Errorf("wrapping: %w", syscall.ECONNABORTED), Transient},
		{errors.New("protocol violation"), Permanent},
		{ErrOpen, Permanent},
		{MarkTransient(errors.New("closed by server")), Transient},
		{MarkPermanent(io.EOF), Permanent},
		{fmt.Errorf("outer: %w", MarkTransient(errors.New("inner"))), Transient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestKindLabels(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, "refused"},
		{&net.OpError{Op: "read", Err: syscall.ECONNRESET}, "reset"},
		{syscall.EPIPE, "reset"},
		{&net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}, "timeout"},
		{io.EOF, "eof"},
		{io.ErrUnexpectedEOF, "eof"},
		{ErrOpen, "breaker"},
		{MarkTransient(errors.New("closed by server")), "transient"},
		{errors.New("tls: handshake failure"), "error"},
	}
	for _, c := range cases {
		if got := Kind(c.err); got != c.want {
			t.Errorf("Kind(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestRetrierSucceedsAfterTransients(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	r := NewRetrier(Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond}, 1).WithClock(fc.clock())
	calls := 0
	err := r.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt != calls {
			t.Errorf("attempt = %d on call %d", attempt, calls)
		}
		if calls < 3 {
			return syscall.ECONNRESET
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if len(fc.slept) != 2 {
		t.Errorf("sleeps = %d, want 2", len(fc.slept))
	}
}

func TestRetrierStopsOnPermanent(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	r := NewRetrier(Policy{}, 1).WithClock(fc.clock())
	calls := 0
	boom := errors.New("server rejected the request")
	err := r.Do(context.Background(), func(int) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (permanent errors must not retry)", calls)
	}
}

func TestRetrierExhaustsAttempts(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	r := NewRetrier(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}, 1).WithClock(fc.clock())
	calls := 0
	err := r.Do(context.Background(), func(int) error { calls++; return io.EOF })
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, io.EOF) {
		t.Errorf("exhaustion error should wrap the last attempt's: %v", err)
	}
}

func TestRetrierBackoffGrowsAndCaps(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	r := NewRetrier(Policy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Multiplier:  2,
		Jitter:      -1, // exact schedule
	}, 1).WithClock(fc.clock())
	_ = r.Do(context.Background(), func(int) error { return io.EOF })
	want := []time.Duration{10, 20, 40, 40, 40}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(fc.slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", fc.slept, want)
	}
	for i, d := range fc.slept {
		if d != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, d, want[i])
		}
	}
}

func TestRetrierJitterIsSeededAndBounded(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		fc := &fakeClock{now: time.Unix(0, 0)}
		r := NewRetrier(Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Jitter: 0.5}, seed).WithClock(fc.clock())
		_ = r.Do(context.Background(), func(int) error { return io.EOF })
		return fc.slept
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed, different jitter at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i, d := range a {
		base := 10 * time.Millisecond << uint(i)
		if d < base || d > base+base/2 {
			t.Errorf("jittered delay %v outside [%v, %v]", d, base, base+base/2)
		}
	}
	if c := schedule(8); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced an identical jitter schedule")
		}
	}
}

// TestRetrierJitterIndependentOfCleanRuns: a retrier's jitter draws are a
// function of its seed and its retries alone — a hundred operations that
// succeed first time before the first retry leave the schedule unchanged.
func TestRetrierJitterIndependentOfCleanRuns(t *testing.T) {
	schedule := func(cleanRuns int) []time.Duration {
		fc := &fakeClock{now: time.Unix(0, 0)}
		r := NewRetrier(Policy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, Jitter: 0.5}, 11).WithClock(fc.clock())
		for i := 0; i < cleanRuns; i++ {
			if err := r.Do(context.Background(), func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			_ = r.Do(context.Background(), func(int) error { return io.EOF })
		}
		return fc.slept
	}
	first, hundredth := schedule(0), schedule(99)
	if len(first) != 6 || len(hundredth) != len(first) {
		t.Fatalf("slept %d and %d times, want 6 each", len(first), len(hundredth))
	}
	for i := range first {
		if first[i] != hundredth[i] {
			t.Errorf("delay %d = %v after no clean runs, %v after 99", i, first[i], hundredth[i])
		}
	}
}

func TestRetrierBudget(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	r := NewRetrier(Policy{
		MaxAttempts: 100,
		BaseDelay:   30 * time.Millisecond,
		Multiplier:  2,
		Jitter:      -1,
		Budget:      100 * time.Millisecond,
	}, 1).WithClock(fc.clock())
	calls := 0
	err := r.Do(context.Background(), func(int) error { calls++; return io.EOF })
	if err == nil {
		t.Fatal("budget exhaustion should surface an error")
	}
	// 30ms + 60ms sleeps fit in 100ms; the 120ms third sleep would not.
	if calls != 3 {
		t.Errorf("calls = %d, want 3 before the budget ran out", calls)
	}
	if fc.asleep > 100*time.Millisecond {
		t.Errorf("slept %v, more than the budget", fc.asleep)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(3, time.Second).WithClock(fc.clock())
	fail := errors.New("down")

	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused attempt %d: %v", i, err)
		}
		b.Record(fail)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("after threshold failures Allow = %v, want ErrOpen", err)
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	fc.now = fc.now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second half-open attempt = %v, want ErrOpen", err)
	}

	// Probe fails: circuit re-opens for a full cooldown.
	b.Record(fail)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("failed probe should re-open the circuit")
	}

	// Next probe succeeds: circuit closes and failures reset.
	fc.now = fc.now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after second cooldown refused: %v", err)
	}
	b.Record(nil)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		b.Record(fail)
	}
	if err := b.Allow(); err != nil {
		t.Error("two failures after reset should not re-open a threshold-3 breaker")
	}
}

func TestBreakerNilIsDisabled(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Errorf("nil breaker Allow = %v", err)
	}
	b.Record(errors.New("ignored")) // must not panic
	if got := NewBreaker(0, time.Second); got != nil {
		t.Errorf("NewBreaker(0, _) = %v, want nil", got)
	}
}

// TestRetrierContextCancel: a canceled context stops the loop before the
// next attempt runs.
func TestRetrierContextCancel(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	r := NewRetrier(Policy{MaxAttempts: 10, BaseDelay: time.Millisecond}, 1).WithClock(fc.clock())
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := r.Do(ctx, func(int) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return io.EOF
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (cancel must stop the loop)", calls)
	}
}

// TestRetrierContextDeadlineBudget: the retry budget derives from the
// context deadline when it is tighter than the policy's.
func TestRetrierContextDeadlineBudget(t *testing.T) {
	fc := &fakeClock{now: time.Now()}
	r := NewRetrier(Policy{
		MaxAttempts: 100,
		BaseDelay:   30 * time.Millisecond,
		Multiplier:  2,
		Jitter:      -1,
	}, 1).WithClock(fc.clock())
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	calls := 0
	err := r.Do(ctx, func(int) error { calls++; return io.EOF })
	if err == nil {
		t.Fatal("deadline-derived budget exhaustion should surface an error")
	}
	// 30ms + 60ms sleeps fit in ~100ms; the 120ms third sleep would not.
	if calls != 3 {
		t.Errorf("calls = %d, want 3 before the deadline budget ran out", calls)
	}
}

// TestRetrierObserverCounters pins the metric semantics: one attempt
// counter tick per op call, one transient-failure tick per retryable
// error, one retry tick per backoff sleep taken.
func TestRetrierObserverCounters(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	o := obs.New()
	r := NewRetrier(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, 1).
		WithClock(fc.clock()).WithObserver(o)
	err := r.Do(context.Background(), func(attempt int) error {
		if attempt < 3 {
			return syscall.ECONNRESET
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Counter(KeyAttempts).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", KeyAttempts, got)
	}
	if got := o.Counter(KeyFailureTransient).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", KeyFailureTransient, got)
	}
	if got := o.Counter(KeyRetries).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", KeyRetries, got)
	}

	boom := errors.New("rejected")
	_ = r.Do(context.Background(), func(int) error { return boom })
	if got := o.Counter(KeyFailurePermanent).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", KeyFailurePermanent, got)
	}

	_ = r.Do(context.Background(), func(int) error { return io.EOF })
	if got := o.Counter(KeyExhausted).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", KeyExhausted, got)
	}
}

// TestBreakerObserver: trips count open transitions and the state gauge
// tracks the lifecycle.
func TestBreakerObserver(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	o := obs.New()
	b := NewBreaker(2, time.Second).WithClock(fc.clock()).WithObserver(o)
	fail := errors.New("down")
	if got := o.Gauge(KeyBreakerState).Value(); got != 0 {
		t.Errorf("initial state gauge = %d, want 0", got)
	}
	b.Record(fail)
	b.Record(fail)
	if got := o.Counter(KeyBreakerTrips).Value(); got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}
	if got := o.Gauge(KeyBreakerState).Value(); got != 1 {
		t.Errorf("state gauge = %d, want 1 (open)", got)
	}
	fc.now = fc.now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if got := o.Gauge(KeyBreakerState).Value(); got != 2 {
		t.Errorf("state gauge = %d, want 2 (half-open)", got)
	}
	b.Record(nil)
	if got := o.Gauge(KeyBreakerState).Value(); got != 0 {
		t.Errorf("state gauge = %d, want 0 (closed)", got)
	}
	if got := o.Counter(KeyBreakerTrips).Value(); got != 1 {
		t.Errorf("trips after recovery = %d, want 1", got)
	}
}
