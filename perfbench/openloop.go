package main

import (
	"context"
	"time"
)

// clock is the time source of the open-loop driver; tests substitute a
// simulated one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// request is one completed open-loop request.
type request struct {
	// Kind is what the request function reported it sent.
	Kind string
	// Latency runs from when the request was due, not from when it was
	// sent: a stall delays every later request, and that wait counts.
	Latency time.Duration
	// Lag is how late the generator sent it (sent − due).
	Lag time.Duration
	Err error
}

// openLoop issues request i at start + i/rate over one sequential
// connection until the window closes or ctx ends. Sends follow the
// schedule, not the replies: when a reply arrives late the next request
// is already due and goes out at once, carrying the lag. do performs
// request i and names its kind.
func openLoop(ctx context.Context, clk clock, start time.Time, rate float64, window time.Duration,
	do func(i int) (kind string, err error)) []request {
	interval := time.Duration(float64(time.Second) / rate)
	end := start.Add(window)
	var out []request
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) || ctx.Err() != nil {
			return out
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		kind, err := do(i)
		done := clk.Now()
		out = append(out, request{Kind: kind, Latency: done.Sub(due), Lag: sent.Sub(due), Err: err})
	}
}

// lagGrowing reports whether the generator fell progressively further
// behind: the median lag of the last quarter of requests exceeds that of
// the first quarter by more than slack. Such a run measured a backlog, not
// the service at the offered rate.
func lagGrowing(reqs []request, slack time.Duration) bool {
	q := len(reqs) / 4
	if q == 0 {
		return false
	}
	lagMs := func(rs []request) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = ms(r.Lag)
		}
		return newDist(v).median()
	}
	return lagMs(reqs[len(reqs)-q:])-lagMs(reqs[:q]) > ms(slack)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
