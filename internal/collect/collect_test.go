package collect

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/device"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

var (
	envOnce sync.Once
	envRep  *netalyzr.Report
	envErr  error
)

// sessionReport runs one real Netalyzr session against a loopback origin
// and caches the report.
func sessionReport(t *testing.T) *netalyzr.Report {
	t.Helper()
	envOnce.Do(func() {
		var w *tlsnet.World
		w, envErr = tlsnet.NewWorld(tlsnet.Config{Seed: 23, NumLeaves: 10})
		if envErr != nil {
			return
		}
		sites, err := tlsnet.NewSites(w)
		if err != nil {
			envErr = err
			return
		}
		srv, err := tlsnet.ServeSites(sites)
		if err != nil {
			envErr = err
			return
		}
		defer srv.Close()
		u := cauniverse.Default()
		dev := device.New(device.Profile{
			Model: "Galaxy SIV", Manufacturer: "SAMSUNG", Operator: "SPRINT", Country: "US", Version: "4.3",
		}, u.AOSP("4.3"), nil)
		client, err := netalyzr.New(dev, tlsnet.DirectDialer{Server: srv},
			netalyzr.WithValidationTime(certgen.Epoch))
		if err != nil {
			envErr = err
			return
		}
		envRep, envErr = client.Run(context.Background())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envRep
}

func TestFromReport(t *testing.T) {
	rep := sessionReport(t)
	w := FromReport(rep)
	if w.Manufacturer != "SAMSUNG" || w.Version != "4.3" || w.Model != "Galaxy SIV" {
		t.Errorf("profile = %+v", w)
	}
	if w.StoreSize != 146 || len(w.StoreHashes) != 146 {
		t.Errorf("store size = %d / %d hashes, want 146", w.StoreSize, len(w.StoreHashes))
	}
	if len(w.Probes) != len(rep.Probes) {
		t.Fatalf("probes = %d, want %d", len(w.Probes), len(rep.Probes))
	}
	for _, p := range w.Probes {
		if p.Err == "" && (len(p.ChainSubjects) == 0 || len(p.TopHash) != 8) {
			t.Errorf("probe %s:%d poorly serialized: %+v", p.Host, p.Port, p)
		}
	}
}

func TestSubmitAndSummary(t *testing.T) {
	rep := sessionReport(t)
	srv, err := NewServer("127.0.0.1:0", WithKeepReports())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if err := c.Submit(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	rooted := FromReport(rep)
	rooted.Rooted = true
	rooted.Manufacturer = "HTC"
	if err := c.SubmitWire(context.Background(), rooted); err != nil {
		t.Fatal(err)
	}

	sum, err := c.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sessions != 4 || sum.RootedSessions != 1 {
		t.Errorf("sessions = %d rooted = %d", sum.Sessions, sum.RootedSessions)
	}
	if sum.ByManufacturer["SAMSUNG"] != 3 || sum.ByManufacturer["HTC"] != 1 {
		t.Errorf("by manufacturer = %v", sum.ByManufacturer)
	}
	if sum.ByVersion["4.3"] != 4 {
		t.Errorf("by version = %v", sum.ByVersion)
	}
	if sum.StoreSizeMin != 146 || sum.StoreSizeMax != 146 || sum.MeanStoreSize() != 146 {
		t.Errorf("store sizes = %d/%d mean %.1f", sum.StoreSizeMin, sum.StoreSizeMax, sum.MeanStoreSize())
	}
	if sum.UntrustedProbes != 0 {
		t.Errorf("untrusted probes = %d on a clean network", sum.UntrustedProbes)
	}
	if got := len(srv.Reports()); got != 4 {
		t.Errorf("retained reports = %d", got)
	}
}

func TestUntrustedProbeCounting(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := WireReport{
		Manufacturer: "ASUS", Version: "4.4", StoreSize: 150,
		Probes: []WireProbe{
			{Host: "gmail.com", Port: 443, DeviceValidated: false},
			{Host: "www.google.com", Port: 443, DeviceValidated: true},
			{Host: "down.example", Port: 443, DeviceValidated: false, Err: "dial failed"},
		},
	}
	if err := c.SubmitWire(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.UntrustedProbes != 1 {
		t.Errorf("untrusted probes = %d, want 1 (errors are not untrusted)", sum.UntrustedProbes)
	}
	if len(srv.Reports()) != 0 {
		t.Error("keepReports=false should retain nothing")
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	rep := sessionReport(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(context.Background(), srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if err := c.Submit(context.Background(), rep); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if sum := srv.Summary(); sum.Sessions != 60 {
		t.Errorf("sessions = %d, want 60", sum.Sessions)
	}
}

func TestCollectErrors(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.roundTrip(context.Background(), request{Op: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op err = %v", err)
	}
	if _, err := c.roundTrip(context.Background(), request{Op: "submit"}); err == nil {
		t.Error("submit without report should error")
	}
	// Raw garbage line.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("garbage\n"))
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if !strings.Contains(string(buf[:n]), "bad request") {
		t.Errorf("garbage response = %q", buf[:n])
	}
}

func TestSubmitAfterCloseCleanError(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := WireReport{Manufacturer: "HTC", Version: "4.0", StoreSize: 140}
	if err := c.SubmitWire(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	// Close returns even though c's connection is still open: the server
	// expires its pending read instead of waiting out the idle deadline.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// A submission racing the shutdown gets a clean protocol error and is
	// not absorbed into the frozen aggregate.
	resp := srv.dispatch(request{Op: "submit", Report: &w})
	if resp.OK || !strings.Contains(resp.Error, "collector closed") {
		t.Errorf("post-close dispatch = %+v, want collector closed error", resp)
	}
	if err := c.SubmitWire(context.Background(), w); err == nil {
		t.Error("submit to a closed collector should fail")
	}
	if sum := srv.Summary(); sum.Sessions != 1 {
		t.Errorf("sessions = %d, want aggregate frozen at 1", sum.Sessions)
	}
	snap := srv.Snapshot()
	if snap.Counters[KeySubmitRejected] == 0 {
		t.Error("post-close submits should be counted as rejected")
	}
}

func TestDuplicateSubmitsNotDoubleCounted(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", WithKeepReports())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w := WireReport{Manufacturer: "HTC", Version: "4.0", StoreSize: 140}
	// The same idempotency ID re-sent — the retry-after-lost-response shape —
	// must be acknowledged without counting twice.
	for i := 0; i < 2; i++ {
		resp := srv.dispatch(request{Op: "submit", ID: "retry-0", Report: &w})
		if !resp.OK {
			t.Fatalf("send %d: %+v", i, resp)
		}
	}
	if sum := srv.Summary(); sum.Sessions != 1 {
		t.Errorf("sessions = %d, want 1 (duplicate ID deduplicated)", sum.Sessions)
	}
	if got := len(srv.Reports()); got != 1 {
		t.Errorf("retained reports = %d, want 1", got)
	}
	snap := srv.Snapshot()
	if got := snap.Counters[KeySubmitTotal]; got != 1 {
		t.Errorf("%s = %d, want 1", KeySubmitTotal, got)
	}
	if got := snap.Counters[KeySubmitDedupe]; got != 1 {
		t.Errorf("%s = %d, want 1", KeySubmitDedupe, got)
	}
}

func TestProbeFaultAggregation(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := WireReport{
		Manufacturer: "ASUS", Version: "4.4", StoreSize: 150,
		Probes: []WireProbe{
			{Host: "a.example", Port: 443, DeviceValidated: true},
			{Host: "b.example", Port: 443, Err: "dial refused", ErrKind: "refused"},
			{Host: "c.example", Port: 443, Err: "read reset", ErrKind: "reset"},
			{Host: "d.example", Port: 443, Err: "reset again", ErrKind: "reset"},
			{Host: "e.example", Port: 443, Err: "mystery"},
		},
	}
	if err := c.SubmitWire(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"refused": 1, "reset": 2, "error": 1}
	for kind, n := range want {
		if sum.ProbeFaults[kind] != n {
			t.Errorf("ProbeFaults[%q] = %d, want %d", kind, sum.ProbeFaults[kind], n)
		}
	}
	if len(sum.ProbeFaults) != len(want) {
		t.Errorf("ProbeFaults = %v, want %v", sum.ProbeFaults, want)
	}
}

func TestSummaryCloneIsolated(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sum := srv.Summary()
	sum.ByManufacturer["EVIL"] = 99
	if srv.Summary().ByManufacturer["EVIL"] != 0 {
		t.Error("mutating a returned summary affected the server")
	}
}

func TestBlankLineSkipped(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("\n{\"op\":\"summary\"}\n")); err != nil {
		t.Fatal(err)
	}
	// One request, one response: a reply to the blank line would arrive
	// first and leave every later response on the connection a request late.
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil || !resp.OK || resp.Summary == nil {
		t.Fatalf("first response = %q (%v), want the summary", line, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if extra, err := r.ReadBytes('\n'); err == nil {
		t.Errorf("unexpected second response %q", extra)
	}
	if got := srv.Snapshot().Counters[KeyBadRequest]; got != 0 {
		t.Errorf("%s = %d, want 0", KeyBadRequest, got)
	}
}

// TestFromReportStoreHashesMatchRecomputed pins the store_hashes wire list:
// formatted from the corpus's precomputed subject hashes, it must equal
// each certificate's subject hash recomputed and formatted "%08x", for
// every handset of a generated fleet and for a store in a non-shared
// corpus. An empty store still encodes as null.
func TestFromReportStoreHashesMatchRecomputed(t *testing.T) {
	pop, err := population.Generate(population.Config{Seed: 5, SessionScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*rootstore.Store, 0, len(pop.Handsets)+1)
	for _, h := range pop.Handsets {
		stores = append(stores, h.Store)
	}
	own := rootstore.NewIn("own corpus", corpus.New())
	own.AddAll(pop.Universe.AOSP("4.1").Certificates())
	stores = append(stores, own)
	for _, s := range stores {
		var want []string
		for _, c := range s.Certificates() {
			want = append(want, fmt.Sprintf("%08x", certid.SubjectHash32(c)))
		}
		got := FromReport(&netalyzr.Report{Store: s}).StoreHashes
		if !slices.Equal(got, want) {
			t.Fatalf("%s: store hashes differ from the recomputed ones:\n got %v\nwant %v", s.Name(), got, want)
		}
	}
	body, err := json.Marshal(FromReport(&netalyzr.Report{Store: rootstore.New("empty")}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"store_hashes":null`) {
		t.Errorf("empty store encodes as %s, want store_hashes null", body)
	}
}
