package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one session or request share its
// Session label; Parent is 0 for a root.
type span struct {
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent"`
	Name    string        `json:"name"`
	Session string        `json:"session"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// layer is the package a span's call enters: its name up to the first dot
// ("notaryshard.ingest" → "notaryshard"). The benchmark's own spans use
// the "bench" layer.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps completed spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string][]float64{}} }

// count records one measured count (allocations of a call, say) under
// name, next to the spans.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// counted returns the values recorded under name.
func (t *tracer) counted(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.counts[name]...)
}

// spanRef identifies an open span to its children, including children
// recorded on another goroutine (the server side of a request).
type spanRef struct {
	id      int64
	session string
}

// active is an open span; end records it.
type active struct {
	t *tracer
	s span
}

// begin opens a span under parent (the zero spanRef for a root). The
// session label is inherited from the parent when session is empty.
func (t *tracer) begin(name string, parent spanRef, session string) active {
	if t == nil {
		return active{}
	}
	if session == "" {
		session = parent.session
	}
	return active{t: t, s: span{
		ID: t.next.Add(1), Parent: parent.id, Name: name, Session: session, Start: time.Since(t.t0),
	}}
}

// ref is the handle children attach to.
func (a active) ref() spanRef { return spanRef{id: a.s.ID, session: a.s.Session} }

func (a active) end() {
	if a.t == nil {
		return
	}
	a.s.End = time.Since(a.t.t0)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// snapshot returns the completed spans ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// profile is the per-layer breakdown of a span set.
type profile struct {
	// Self is each layer's self time: span durations minus the part of
	// each span its children cover.
	Self map[string]time.Duration
	// SelfSum is the sum of Self; Roots the summed durations of the root
	// spans. With children nested inside their parents and not
	// overlapping each other the two are equal.
	SelfSum, Roots time.Duration
	// Durations lists each span name's durations in milliseconds, and
	// SelfTimes each span's own self time.
	Durations, SelfTimes map[string][]float64
	Count                int
}

// analyze computes self times. A child is clipped to its parent's
// interval, and overlapping children are counted once, so a mislinked or
// concurrent child shows up as SelfSum exceeding Roots rather than as a
// negative self time.
func analyze(spans []span) profile {
	p := profile{
		Self:      map[string]time.Duration{},
		Durations: map[string][]float64{},
		SelfTimes: map[string][]float64{},
		Count:     len(spans),
	}
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID])
		p.Self[s.layer()] += self
		p.SelfSum += self
		if s.Parent == 0 {
			p.Roots += s.dur()
		}
		p.Durations[s.Name] = append(p.Durations[s.Name], ms(s.dur()))
		p.SelfTimes[s.Name] = append(p.SelfTimes[s.Name], ms(self))
	}
	return p
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans dumps the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing span dump: %w", err)
	}
	return f.Close()
}
