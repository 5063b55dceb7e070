package main

import (
	"sync"
	"testing"
	"time"
)

func sp(id, parent int64, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start * time.Millisecond, End: end * time.Millisecond}
}

func TestAnalyzeSelfTimesSumToRoots(t *testing.T) {
	spans := []span{
		sp(1, 0, "bench.session", 0, 100),
		sp(2, 1, "netalyzr.run", 10, 60),
		sp(3, 2, "tlsnet.dial", 15, 20),
		sp(4, 1, "notarynet.observe", 70, 90),
		sp(5, 4, "notaryshard.ingest", 72, 88),
	}
	p := analyze(spans)
	want := map[string]time.Duration{
		"bench":       30 * time.Millisecond,
		"netalyzr":    45 * time.Millisecond,
		"tlsnet":      5 * time.Millisecond,
		"notarynet":   4 * time.Millisecond,
		"notaryshard": 16 * time.Millisecond,
	}
	for layer, d := range want {
		if p.Self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, p.Self[layer], d)
		}
	}
	if p.SelfSum != p.Roots || p.Roots != 100*time.Millisecond {
		t.Errorf("self sum %v, roots %v, want both 100ms", p.SelfSum, p.Roots)
	}
	if got := p.Durations["tlsnet.dial"]; len(got) != 1 || got[0] != 5 {
		t.Errorf("durations = %v", got)
	}
}

func TestAnalyzeOverlappingChildrenCountOnce(t *testing.T) {
	// Two concurrent children overlap: the parent's self time counts the
	// union once, and the double-counted overlap shows in SelfSum > Roots.
	spans := []span{
		sp(1, 0, "bench.pass", 0, 100),
		sp(2, 1, "notary.ingest", 10, 50),
		sp(3, 1, "notary.ingest", 30, 70),
		sp(4, 1, "notary.ingest", 90, 120), // runs past its parent: clipped
	}
	p := analyze(spans)
	if got := p.Self["bench"]; got != 30*time.Millisecond {
		t.Errorf("parent self = %v, want 30ms", got)
	}
	if p.SelfSum-p.Roots != 20*time.Millisecond+20*time.Millisecond {
		t.Errorf("self sum %v − roots %v should expose the 20ms overlap and the 20ms overrun", p.SelfSum, p.Roots)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	a := tr.begin("bench.session", spanRef{}, "s")
	a.end()
	if a.ref() != (spanRef{}) {
		t.Error("nil tracer returned a live span")
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.worker", spanRef{}, "w")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := tr.begin("notary.observe", root.ref(), "")
				c.end()
			}
		}()
	}
	wg.Wait()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 801 {
		t.Fatalf("recorded %d spans, want 801", len(spans))
	}
	seen := map[int64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
		if s.Name == "notary.observe" && (s.Parent != root.ref().id || s.Session != "w") {
			t.Fatalf("child %+v lost its parent or session", s)
		}
	}
}
