package main

import (
	"context"
	"testing"
	"time"
)

// simClock is a simulated clock: Sleep and the request function advance it.
type simClock struct{ t time.Time }

func (c *simClock) Now() time.Time        { return c.t }
func (c *simClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopSchedulesByRate(t *testing.T) {
	clk := &simClock{t: time.Unix(1000, 0)}
	start := clk.Now()
	reqs := openLoop(context.Background(), clk, start, 100, time.Second, func(int) (string, error) {
		clk.Sleep(time.Millisecond)
		return "op", nil
	})
	if len(reqs) != 100 {
		t.Fatalf("sent %d requests in 1s at 100/s, want 100", len(reqs))
	}
	for i, r := range reqs {
		if r.Lag != 0 || r.Latency != time.Millisecond {
			t.Fatalf("request %d: lag %v latency %v, want 0 and 1ms", i, r.Lag, r.Latency)
		}
	}
	if lagGrowing(reqs, 10*time.Millisecond) {
		t.Error("a keeping-up run reported growing lag")
	}
}

func TestOpenLoopTimesFromDueNotSend(t *testing.T) {
	// Request 0 stalls for 50ms at 1000/s: the next 50 requests are due
	// while it is outstanding. A send-time clock would report 1ms for them;
	// the due-time clock charges each its share of the stall.
	clk := &simClock{t: time.Unix(1000, 0)}
	start := clk.Now()
	reqs := openLoop(context.Background(), clk, start, 1000, 100*time.Millisecond, func(i int) (string, error) {
		if i == 0 {
			clk.Sleep(50 * time.Millisecond)
		} else {
			clk.Sleep(100 * time.Microsecond)
		}
		return "op", nil
	})
	if len(reqs) != 100 {
		t.Fatalf("sent %d requests, want 100", len(reqs))
	}
	if reqs[0].Latency != 50*time.Millisecond {
		t.Errorf("stalled request latency %v, want 50ms", reqs[0].Latency)
	}
	// Request 1 was due at 1ms and sent at 50ms.
	if reqs[1].Lag != 49*time.Millisecond || reqs[1].Latency != 49*time.Millisecond+100*time.Microsecond {
		t.Errorf("request 1 lag %v latency %v", reqs[1].Lag, reqs[1].Latency)
	}
	// The backlog drains at 0.9ms per request: lag shrinks, never grows.
	if reqs[10].Lag >= reqs[1].Lag {
		t.Errorf("backlog did not drain: lag %v then %v", reqs[1].Lag, reqs[10].Lag)
	}
	if lagGrowing(reqs, 10*time.Millisecond) {
		t.Error("a draining backlog reported as growing")
	}
}

func TestOpenLoopDetectsGrowingLag(t *testing.T) {
	// Every request takes 2ms at 1000/s: the generator falls further behind
	// with each one.
	clk := &simClock{t: time.Unix(1000, 0)}
	reqs := openLoop(context.Background(), clk, clk.Now(), 1000, 200*time.Millisecond, func(int) (string, error) {
		clk.Sleep(2 * time.Millisecond)
		return "op", nil
	})
	if !lagGrowing(reqs, 10*time.Millisecond) {
		t.Error("an overloaded run was not flagged")
	}
	last := reqs[len(reqs)-1]
	if last.Latency != last.Lag+2*time.Millisecond {
		t.Errorf("latency %v should be lag %v plus service time", last.Latency, last.Lag)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	clk := &simClock{t: time.Unix(1000, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	reqs := openLoop(ctx, clk, clk.Now(), 1000, time.Second, func(i int) (string, error) {
		if i == 4 {
			cancel()
		}
		return "op", nil
	})
	if len(reqs) != 5 {
		t.Errorf("sent %d requests after cancel at the 5th, want 5", len(reqs))
	}
}
