package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tangledmass/internal/obs"
	"tangledmass/internal/resilient"
)

// TestCloseExpiresPendingReads: a handler blocked reading from a client
// that sends nothing — a TLS server waiting for a ClientHello has this
// shape — must not hold up Close, and once Close has begun the handler
// cannot re-arm its read deadline.
func TestCloseExpiresPendingReads(t *testing.T) {
	reading := make(chan struct{})
	rearm := make(chan error, 1)
	l, err := Listen("127.0.0.1:0", func(conn net.Conn) {
		close(reading)
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			rearm <- errors.New("read returned data from a silent client")
			return
		}
		rearm <- conn.SetDeadline(time.Now().Add(time.Minute))
	})
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	<-reading
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		silent.Close()
		<-closed
		t.Fatal("Close waited on a handler reading from a silent client")
	}
	if err := <-rearm; !errors.Is(err, net.ErrClosed) {
		t.Errorf("re-arming after Close = %v, want net.ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// echo serves JSON lines by echoing each request's "n" back, counting
// connections through the returned gauge.
type echoReq struct {
	ID string `json:"id,omitempty"`
	N  int    `json:"n"`
}

type echoResp struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	N     int    `json:"n"`
}

func echoStatus(r echoResp) (bool, string) { return r.OK, r.Error }

func listenEcho(t *testing.T, serve func(line []byte) any) (*Listener, *obs.Observer) {
	t.Helper()
	o := obs.New()
	if serve == nil {
		serve = func(line []byte) any {
			var req echoReq
			if err := json.Unmarshal(line, &req); err != nil {
				return echoResp{Error: err.Error()}
			}
			if req.N < 0 {
				return echoResp{Error: "negative"}
			}
			return echoResp{OK: true, N: req.N}
		}
	}
	l, err := Listen("127.0.0.1:0", Lines(serve, func() *obs.Gauge { return o.Gauge("wire.test.conns") }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, o
}

// TestLinesOneResponsePerRequest: blank lines get no response, every other
// line exactly one, in order, so pipelined requests stay aligned.
func TestLinesOneResponsePerRequest(t *testing.T) {
	l, o := listenEcho(t, nil)
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("\n{\"n\":1}\n\n\n{\"n\":2}\nnot json\n{\"n\":3}\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for _, want := range []string{`"n":1`, `"n":2`, `"error"`, `"n":3`} {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(line, want) {
			t.Errorf("response %q, want it to contain %s", line, want)
		}
	}
	if err := conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if extra, err := r.ReadString('\n'); err == nil {
		t.Errorf("unexpected extra response %q", extra)
	}
	if got := o.Snapshot().Gauges["wire.test.conns"]; got != 1 {
		t.Errorf("active gauge = %d, want 1", got)
	}
}

// TestCloseAnswersRequestInFlight: a request already being served when
// Close begins is completed and answered before Close returns.
func TestCloseAnswersRequestInFlight(t *testing.T) {
	serving := make(chan struct{})
	release := make(chan struct{})
	l, _ := listenEcho(t, func(line []byte) any {
		close(serving)
		<-release
		return echoResp{OK: true, N: 7}
	})
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{\"n\":7}\n")); err != nil {
		t.Fatal(err)
	}
	<-serving
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	close(release)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, `"n":7`) {
		t.Errorf("in-flight response = %q, %v; want it answered", line, err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// TestClientBrokenAfterDeadline: a response that misses the round-trip
// deadline poisons the transport — a late reply would otherwise be read
// as the answer to the next request — and the next call reconnects.
func TestClientBrokenAfterDeadline(t *testing.T) {
	late := make(chan struct{})
	var calls atomic.Int32
	l, _ := listenEcho(t, func(line []byte) any {
		if calls.Add(1) == 1 {
			<-late
		}
		var req echoReq
		_ = json.Unmarshal(line, &req)
		return echoResp{OK: true, N: req.N}
	})
	var dials, dialErrs int
	c, err := Dial(context.Background(), l.Addr(), Config{
		Name:  "test",
		Retry: resilient.NewRetrier(resilient.Policy{MaxAttempts: 1}, 0),
		Dialed: func(err error) {
			dials++
			if err != nil {
				dialErrs++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err = Call(ctx, c, echoReq{ID: c.NextID(), N: 1}, echoStatus)
	cancel()
	close(late)
	if resilient.Classify(err) != resilient.Transient {
		t.Fatalf("late response error = %v, want a transient timeout", err)
	}
	if !c.broken {
		t.Error("transport should be marked broken after a deadline failure")
	}
	resp, err := Call(context.Background(), c, echoReq{ID: c.NextID(), N: 2}, echoStatus)
	if err != nil || resp.N != 2 {
		t.Fatalf("call after reconnect = %+v, %v; want n=2", resp, err)
	}
	if dials != 2 || dialErrs != 0 {
		t.Errorf("dials = %d (errors %d), want 2 (0): the eager connect and one reconnect", dials, dialErrs)
	}
}

// TestClientRejectionIsPermanent: a protocol rejection fails the call
// without a retry or a breaker trip, and leaves the connection usable.
func TestClientRejectionIsPermanent(t *testing.T) {
	l, _ := listenEcho(t, nil)
	breaker := resilient.NewBreaker(1, time.Hour)
	dials := 0
	c, err := Dial(context.Background(), l.Addr(), Config{
		Name:    "test",
		Breaker: breaker,
		Dialed:  func(error) { dials++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = Call(context.Background(), c, echoReq{N: -1}, echoStatus)
	if err == nil || !strings.Contains(err.Error(), "test: server error: negative") {
		t.Fatalf("rejection error = %v", err)
	}
	if resilient.Classify(err) != resilient.Permanent {
		t.Errorf("rejection classified transient: %v", err)
	}
	if _, err := Call(context.Background(), c, echoReq{N: 3}, echoStatus); err != nil {
		t.Fatalf("call after a rejection: %v (breaker must stay closed)", err)
	}
	if dials != 1 || c.broken {
		t.Errorf("dials = %d, broken = %v; a rejection must not cost the connection", dials, c.broken)
	}
}

func TestNextIDUniquePerRequest(t *testing.T) {
	l, _ := listenEcho(t, nil)
	a, err := Dial(context.Background(), l.Addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(context.Background(), l.Addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		for _, id := range []string{a.NextID(), b.NextID()} {
			if seen[id] {
				t.Fatalf("ID %s issued twice", id)
			}
			seen[id] = true
		}
	}
	if id := a.NextID(); !strings.HasPrefix(id, a.nonce+"-") || !strings.HasSuffix(id, "-3") {
		t.Errorf("ID %q, want nonce-sequence", id)
	}
}

// TestWindowPendingDuplicateWaits: a duplicate that arrives while its
// original is still being applied is answered only by the original's
// outcome — a duplicate after a commit, an apply of its own after a
// failure — never by an acknowledgment of something not yet durable.
func TestWindowPendingDuplicateWaits(t *testing.T) {
	for _, originalFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("originalFails=%v", originalFails), func(t *testing.T) {
			var w Window
			applying := make(chan struct{})
			finish := make(chan struct{})
			var applied atomic.Int32
			original := make(chan error, 1)
			go func() {
				_, err := w.Do("x", func() error {
					close(applying)
					<-finish
					if originalFails {
						return errors.New("fsync failed")
					}
					applied.Add(1)
					return nil
				})
				original <- err
			}()
			<-applying

			type outcome struct {
				dup bool
				err error
			}
			retry := make(chan outcome, 1)
			go func() {
				dup, err := w.Do("x", func() error { applied.Add(1); return nil })
				retry <- outcome{dup, err}
			}()
			// Nothing signals that the duplicate has parked; give it time to
			// reach the window and check it has not answered.
			select {
			case o := <-retry:
				t.Fatalf("duplicate answered %+v while the original was pending", o)
			case <-time.After(50 * time.Millisecond):
			}
			close(finish)
			if err := <-original; (err != nil) != originalFails {
				t.Fatalf("original = %v", err)
			}
			o := <-retry
			if o.err != nil || o.dup == originalFails {
				t.Errorf("duplicate = %+v, want dup=%v", o, !originalFails)
			}
			if got := applied.Load(); got != 1 {
				t.Errorf("applied %d times, want exactly once", got)
			}
		})
	}
}

// TestWindowAgesOutByLatestRecording: an ID that failed and was then
// re-applied must stay deduplicated until windowCap newer IDs have
// committed after its commit, however many times it failed before.
func TestWindowAgesOutByLatestRecording(t *testing.T) {
	var w Window
	applies := 0
	fail := errors.New("journal fenced")
	for i := 0; i < 3; i++ {
		if _, err := w.Do("x", func() error { applies++; return fail }); err != fail {
			t.Fatalf("failing apply %d = %v", i, err)
		}
	}
	if dup, err := w.Do("x", func() error { applies++; return nil }); dup || err != nil {
		t.Fatalf("retry after failures = dup %v, %v; want applied", dup, err)
	}
	for i := 0; i < windowCap-1; i++ {
		if _, err := w.Do(fmt.Sprintf("n-%d", i), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if dup, _ := w.Do("x", func() error { applies++; return nil }); !dup {
		t.Fatal("x aged out early: its failed attempts must not count towards the window")
	}
	if _, err := w.Do("one-more", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if dup, _ := w.Do("x", func() error { applies++; return nil }); dup {
		t.Error("x should age out once windowCap newer IDs committed after it")
	}
	if applies != 5 {
		t.Errorf("applies = %d, want 5 (3 failures, the retry, the post-window resend)", applies)
	}
	for i := 0; i < 2; i++ {
		if dup, _ := w.Do("", func() error { return nil }); dup {
			t.Fatal("an empty ID must never be deduplicated")
		}
	}
}

// TestWindowConcurrentRetries hammers one window from several goroutines
// re-sending the same IDs, with each ID's first apply failing: every ID
// must end up applied exactly once.
func TestWindowConcurrentRetries(t *testing.T) {
	var w Window
	const ids, senders = 64, 8
	var mu sync.Mutex
	attempts := make(map[string]int)
	applied := make(map[string]int)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("id-%d", i)
				for {
					_, err := w.Do(id, func() error {
						mu.Lock()
						defer mu.Unlock()
						attempts[id]++
						if attempts[id] == 1 {
							return errors.New("first attempt fails")
						}
						applied[id]++
						return nil
					})
					if err == nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < ids; i++ {
		if id := fmt.Sprintf("id-%d", i); applied[id] != 1 {
			t.Errorf("%s applied %d times, want 1", id, applied[id])
		}
	}
}

// padReq is a request whose size the test chooses.
type padReq struct {
	Pad string `json:"pad"`
}

type padResp struct {
	OK  bool   `json:"ok"`
	Pad string `json:"pad"`
}

func padStatus(r padResp) (bool, string) { return r.OK, "" }

// listenPad echoes each padReq back, counting the lines it served.
func listenPad(t *testing.T, served *atomic.Int64) *Listener {
	t.Helper()
	l, _ := listenEcho(t, func(line []byte) any {
		served.Add(1)
		var req padReq
		if err := json.Unmarshal(line, &req); err != nil {
			return padResp{}
		}
		return padResp{OK: true, Pad: req.Pad}
	})
	return l
}

// TestOversizedRequestIsPermanent: a request whose line would exceed
// MaxLine cannot succeed on any connection — the server drops a connection
// on it — so it fails at once as permanent, with nothing written, and the
// connection stays usable.
func TestOversizedRequestIsPermanent(t *testing.T) {
	var served atomic.Int64
	l := listenPad(t, &served)
	dials := 0
	c, err := Dial(context.Background(), l.Addr(), Config{
		Name:   "test",
		Dialed: func(error) { dials++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = Call(context.Background(), c, padReq{Pad: strings.Repeat("x", MaxLine)}, padStatus)
	if err == nil {
		t.Fatal("oversized request succeeded")
	}
	if resilient.Classify(err) != resilient.Permanent {
		t.Errorf("oversized request error classified transient: %v", err)
	}
	if dials != 1 {
		t.Errorf("dials = %d, want 1 (the initial connect): the oversized request was retried", dials)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("server served %d lines, want 0", n)
	}
	resp, err := Call(context.Background(), c, padReq{Pad: "small"}, padStatus)
	if err != nil || resp.Pad != "small" {
		t.Fatalf("call after an oversized request = %+v, %v; want it served", resp, err)
	}
	if dials != 1 {
		t.Errorf("dials = %d after the follow-up call, want 1: the connection was lost", dials)
	}
}

// TestConnectionBuffersGrowOnDemand: neither end of a connection reserves
// a large line buffer up front — a dial and one small exchange, both ends
// included, allocate a few KiB — yet a line far beyond the initial buffer
// still round-trips.
func TestConnectionBuffersGrowOnDemand(t *testing.T) {
	var served atomic.Int64
	l := listenPad(t, &served)
	exchange := func(pad string) {
		c, err := Dial(context.Background(), l.Addr(), Config{Name: "test"})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := Call(context.Background(), c, padReq{Pad: pad}, padStatus)
		if err != nil || resp.Pad != pad {
			t.Fatalf("exchange of a %d-byte pad = %d bytes back, %v", len(pad), len(resp.Pad), err)
		}
		c.Close()
	}
	exchange("warm-up")

	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		exchange("small")
	}
	runtime.ReadMemStats(&after)
	if perDial := (after.TotalAlloc - before.TotalAlloc) / rounds; perDial >= 16<<10 {
		t.Errorf("a dial plus one small exchange allocates %d bytes, want under 16 KiB", perDial)
	}

	exchange(strings.Repeat("y", 1<<20))
}
