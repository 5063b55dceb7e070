package netalyzr

import (
	"context"
	"net"
	"sync"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/device"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

var (
	envOnce sync.Once
	envSrv  *tlsnet.Server
	envSite *tlsnet.Sites
	envErr  error
)

// env starts a shared origin server for the test binary.
func env(t *testing.T) (*tlsnet.Server, *tlsnet.Sites) {
	t.Helper()
	envOnce.Do(func() {
		var w *tlsnet.World
		w, envErr = tlsnet.NewWorld(tlsnet.Config{Seed: 5, NumLeaves: 10})
		if envErr != nil {
			return
		}
		envSite, envErr = tlsnet.NewSites(w)
		if envErr != nil {
			return
		}
		envSrv, envErr = tlsnet.ServeSites(envSite)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envSrv, envSite
}

func stockDevice() *device.Device {
	u := cauniverse.Default()
	return device.New(device.Profile{
		Model: "Nexus 5", Manufacturer: "LG", Operator: "T-MOBILE", Country: "US", Version: "4.4",
	}, u.AOSP("4.4"), nil)
}

func TestRunDirectSession(t *testing.T) {
	srv, _ := env(t)
	o := obs.New()
	c, err := New(stockDevice(), tlsnet.DirectDialer{Server: srv},
		WithValidationTime(certgen.Epoch), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Store.Len() != 150 {
		t.Errorf("collected store = %d certs, want 150", rep.Store.Len())
	}
	if len(rep.Probes) != len(tlsnet.ProbeTargets()) {
		t.Fatalf("probes = %d, want %d", len(rep.Probes), len(tlsnet.ProbeTargets()))
	}
	for _, p := range rep.Probes {
		if p.Err != nil {
			t.Fatalf("probe %s failed: %v", p.Target, p.Err)
		}
		if len(p.Chain) < 2 {
			t.Errorf("probe %s captured %d certs", p.Target, len(p.Chain))
		}
		if !p.DeviceValidated {
			t.Errorf("probe %s should validate on a stock 4.4 device", p.Target)
		}
	}
	if n := len(rep.UntrustedProbes()); n != 0 {
		t.Errorf("untrusted probes = %d, want 0 on a clean network", n)
	}
	snap := o.Snapshot()
	want := int64(len(tlsnet.ProbeTargets()))
	if got := snap.Counters[KeyProbesTotal]; got != want {
		t.Errorf("%s = %d, want %d", KeyProbesTotal, got, want)
	}
	if got := snap.Counters[KeyDialsTotal]; got != want {
		t.Errorf("%s = %d, want %d (one dial per clean probe)", KeyDialsTotal, got, want)
	}
	if got := snap.Counters[KeyStoreReads]; got != 1 {
		t.Errorf("%s = %d, want 1", KeyStoreReads, got)
	}
	if got := snap.Spans[KeyProbeSpan].Count; got != want {
		t.Errorf("span %s count = %d, want %d", KeyProbeSpan, got, want)
	}
}

func TestRunWithPrunedStore(t *testing.T) {
	srv, sites := env(t)
	u := cauniverse.Default()
	// A device trusting a single irrelevant root validates nothing.
	lonely := rootstore.New("lonely")
	lonely.Add(u.Root("CRAZY HOUSE").Issued.Cert)
	lone := device.New(device.Profile{Model: "X", Manufacturer: "Y", Version: "4.4"}, lonely, nil)
	c, err := New(lone, tlsnet.DirectDialer{Server: srv},
		WithTargets([]tlsnet.HostPort{sites.All()[0].HostPort}),
		WithValidationTime(certgen.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes[0].DeviceValidated {
		t.Error("probe should not validate without the issuing root")
	}
	if len(rep.UntrustedProbes()) != 1 {
		t.Error("untrusted probe should be reported")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("New without device/dialer should error")
	}
}

func TestProbeDialFailure(t *testing.T) {
	o := obs.New()
	c, err := New(stockDevice(), failingDialer{},
		WithValidationTime(certgen.Epoch),
		WithTargets([]tlsnet.HostPort{{Host: "unreachable.example", Port: 443}}),
		WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes[0].Err == nil {
		t.Error("dial failure should surface in the probe result")
	}
	if len(rep.UntrustedProbes()) != 0 {
		t.Error("failed probes are unreachable, not untrusted")
	}
	snap := o.Snapshot()
	if got := snap.Counters[KeyProbesFailed]; got != 1 {
		t.Errorf("%s = %d, want 1", KeyProbesFailed, got)
	}
	if snap.Counters[KeyDialErrors] != snap.Counters[KeyDialsTotal] {
		t.Errorf("every dial should have failed: %d errors of %d dials",
			snap.Counters[KeyDialErrors], snap.Counters[KeyDialsTotal])
	}
}

func TestRunCanceled(t *testing.T) {
	srv, _ := env(t)
	c, err := New(stockDevice(), tlsnet.DirectDialer{Server: srv},
		WithValidationTime(certgen.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx); err == nil {
		t.Error("Run with a canceled context should error")
	}
}

type failingDialer struct{}

func (failingDialer) DialSite(ctx context.Context, host string, port int) (net.Conn, error) {
	return nil, net.ErrClosed
}
