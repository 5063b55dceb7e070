package trusteval_test

import (
	"errors"
	"net"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/chain"
	"tangledmass/internal/corpus"
	"tangledmass/internal/device"
	"tangledmass/internal/obs"
	"tangledmass/internal/pinning"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/trusteval"

	"crypto/x509"
)

// pki is the little trust world the engine tests run in: an official root
// with a chain for good.example.com, and a rogue root (the §7 interception
// CA archetype) forging the same host.
type pki struct {
	official   *certgen.Issued
	inter      *certgen.Issued
	leaf       *certgen.Issued // good.example.com via inter
	rogue      *certgen.Issued
	forged     *certgen.Issued // good.example.com via rogue
	wildcard   *certgen.Issued // *.w.example.com via inter
	ipLeaf     *certgen.Issued // 192.0.2.10 via inter
	officials  *rootstore.Store
	tampered   *rootstore.Store // officials + rogue
	rogueStore *rootstore.Store
}

func buildPKI(t *testing.T) *pki {
	t.Helper()
	g := certgen.NewGenerator(77)
	must := func(i *certgen.Issued, err error) *certgen.Issued {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	p := &pki{}
	p.official = must(g.SelfSignedCA("Eval Official Root"))
	p.inter = must(g.Intermediate(p.official, "Eval Intermediate"))
	p.leaf = must(g.Leaf(p.inter, "good.example.com"))
	p.rogue = must(g.SelfSignedCA("Eval Rogue Root"))
	p.forged = must(g.Leaf(p.rogue, "good.example.com"))
	p.wildcard = must(g.Leaf(p.inter, "w-wild", certgen.WithDNSNames("*.w.example.com")))
	p.ipLeaf = must(g.Leaf(p.inter, "ip-leaf", certgen.WithIPAddresses(net.ParseIP("192.0.2.10"))))

	p.officials = rootstore.New("officials")
	p.officials.Add(p.official.Cert)
	p.tampered = rootstore.New("tampered")
	p.tampered.Add(p.official.Cert)
	p.tampered.Add(p.rogue.Cert)
	p.rogueStore = rootstore.New("rogue-only")
	p.rogueStore.Add(p.rogue.Cert)
	return p
}

func goodChain(p *pki) []*x509.Certificate {
	return []*x509.Certificate{p.leaf.Cert, p.inter.Cert}
}

func forgedChain(p *pki) []*x509.Certificate {
	return []*x509.Certificate{p.forged.Cert}
}

func TestCleanConnection(t *testing.T) {
	p := buildPKI(t)
	e := trusteval.New(certgen.Epoch, trusteval.WithReference(p.officials))
	v := e.Evaluate(trusteval.Request{
		Chain: goodChain(p), Host: "good.example.com", Port: 443,
		Store: p.officials, Policy: device.ValidationPolicy{},
	})
	if v.Chain != trusteval.OutcomePass || v.Hostname != trusteval.OutcomePass || v.Pin != trusteval.OutcomeSkipped {
		t.Fatalf("layers = %v/%v/%v, want pass/pass/skipped", v.Chain, v.Hostname, v.Pin)
	}
	if !v.Accepted || v.Cause != trusteval.CauseClean {
		t.Fatalf("accepted=%v cause=%q, want accepted clean", v.Accepted, v.Cause)
	}
	if !v.AnchoredInReference {
		t.Error("chain anchored in the reference store but not reported so")
	}
	if len(v.Overrides) != 0 {
		t.Errorf("clean connection recorded overrides %v", v.Overrides)
	}
	if len(v.Path) != 3 || v.Path[0] != p.leaf.Cert {
		t.Errorf("winning path not materialized: %d certs", len(v.Path))
	}
	if len(v.RootIDs) != 1 || v.RootIDs[0] != corpus.IdentityOf(p.official.Cert) {
		t.Errorf("RootIDs = %v, want the official root", v.RootIDs)
	}
}

// TestAcceptAllValidatesForgedChain is the tentpole scenario: the proxy's
// forged chain anchors nowhere on the device, the platform rejects it, and
// an accept-all trust manager "validates" it anyway — recorded as an
// override, never as a pass.
func TestAcceptAllValidatesForgedChain(t *testing.T) {
	p := buildPKI(t)
	e := trusteval.New(certgen.Epoch, trusteval.WithReference(p.officials))
	req := trusteval.Request{
		Chain: forgedChain(p), Host: "good.example.com", Port: 443,
		Store: p.officials,
	}

	strict := e.Evaluate(req)
	if strict.Accepted || strict.Chain != trusteval.OutcomeFail {
		t.Fatalf("strict policy: accepted=%v chain=%v, want rejected fail", strict.Accepted, strict.Chain)
	}
	if strict.Cause != "" {
		t.Errorf("rejected verdict carries cause %q", strict.Cause)
	}
	if !errors.Is(strict.ChainErr, chain.ErrNoChain) {
		t.Errorf("ChainErr = %v, want ErrNoChain", strict.ChainErr)
	}

	req.Policy = device.ValidationPolicy{App: "ad-sdk", AcceptAll: true}
	v := e.Evaluate(req)
	if !v.Accepted || v.Chain != trusteval.OutcomeOverridden {
		t.Fatalf("accept-all: accepted=%v chain=%v, want accepted overridden", v.Accepted, v.Chain)
	}
	if v.Cause != trusteval.CauseAppAcceptAll {
		t.Errorf("cause = %q, want %q", v.Cause, trusteval.CauseAppAcceptAll)
	}
	if len(v.Overrides) != 1 || v.Overrides[0] != trusteval.OverrideAcceptAll {
		t.Errorf("overrides = %v", v.Overrides)
	}
	if !errors.Is(v.ChainErr, chain.ErrNoChain) {
		t.Error("override must preserve the chain diagnostic")
	}
}

func TestStoreTamperingAttribution(t *testing.T) {
	p := buildPKI(t)
	e := trusteval.New(certgen.Epoch, trusteval.WithReference(p.officials))
	v := e.Evaluate(trusteval.Request{
		Chain: forgedChain(p), Host: "good.example.com", Port: 443,
		Store: p.tampered, Policy: device.ValidationPolicy{},
	})
	if !v.Accepted || v.Chain != trusteval.OutcomePass {
		t.Fatalf("tampered store: accepted=%v chain=%v, want the rogue-anchored pass", v.Accepted, v.Chain)
	}
	if v.AnchoredInReference {
		t.Error("forged chain reported as anchored in the official reference")
	}
	if v.Cause != trusteval.CauseStoreTampering {
		t.Errorf("cause = %q, want %q", v.Cause, trusteval.CauseStoreTampering)
	}
}

func TestSkipHostnamePolicy(t *testing.T) {
	p := buildPKI(t)
	e := trusteval.New(certgen.Epoch, trusteval.WithReference(p.officials))
	req := trusteval.Request{
		Chain: goodChain(p), Host: "other.example.com", Port: 443,
		Store: p.officials, Policy: device.ValidationPolicy{},
	}
	strict := e.Evaluate(req)
	if strict.Accepted || strict.Hostname != trusteval.OutcomeFail {
		t.Fatalf("strict: accepted=%v hostname=%v, want rejected fail", strict.Accepted, strict.Hostname)
	}

	req.Policy = device.ValidationPolicy{App: "allow-all", SkipHostname: true}
	v := e.Evaluate(req)
	if !v.Accepted || v.Hostname != trusteval.OutcomeOverridden {
		t.Fatalf("skip-hostname: accepted=%v hostname=%v", v.Accepted, v.Hostname)
	}
	if v.Cause != trusteval.CauseAppNoHostname {
		t.Errorf("cause = %q, want %q", v.Cause, trusteval.CauseAppNoHostname)
	}
	if v.HostErr == nil {
		t.Error("override must preserve the hostname diagnostic")
	}
}

func TestPinLayer(t *testing.T) {
	p := buildPKI(t)
	pins := pinning.NewStore()
	pins.Add("good.example.com", p.inter.Cert) // pin the issuing CA, §2 style

	e := trusteval.New(certgen.Epoch, trusteval.WithPins(pins), trusteval.WithReference(p.officials))
	ok := e.Evaluate(trusteval.Request{
		Chain: goodChain(p), Host: "good.example.com", Port: 443,
		Store: p.officials, Policy: device.ValidationPolicy{},
	})
	if ok.Pin != trusteval.OutcomePass || !ok.Accepted {
		t.Fatalf("pin-satisfying chain: pin=%v accepted=%v", ok.Pin, ok.Accepted)
	}

	// A forged chain on a tampered store clears the chain layer but trips
	// the pin — the pinned app catches the interception.
	req := trusteval.Request{
		Chain: forgedChain(p), Host: "good.example.com", Port: 443,
		Store: p.tampered, Policy: device.ValidationPolicy{},
	}
	caught := e.Evaluate(req)
	if caught.Accepted || caught.Pin != trusteval.OutcomeFail {
		t.Fatalf("pinned app accepted a forged chain: pin=%v", caught.Pin)
	}
	var mismatch *pinning.ErrPinMismatch
	if !errors.As(caught.PinErr, &mismatch) {
		t.Errorf("PinErr = %v, want ErrPinMismatch", caught.PinErr)
	}

	// The pin-bypassed debug build tunnels straight through the proxy.
	req.Policy = device.ValidationPolicy{App: "debug-build", BypassPins: true}
	tunneled := e.Evaluate(req)
	if !tunneled.Accepted || tunneled.Pin != trusteval.OutcomeOverridden {
		t.Fatalf("pin bypass: accepted=%v pin=%v", tunneled.Accepted, tunneled.Pin)
	}
	// Store tampering outranks the pin bypass in attribution.
	if tunneled.Cause != trusteval.CauseStoreTampering {
		t.Errorf("cause = %q, want store-tampering precedence", tunneled.Cause)
	}

	// Unpinned hosts and pin-free engines skip the layer entirely.
	if v := e.Evaluate(trusteval.Request{Chain: goodChain(p), Host: "unpinned.example.com", Store: p.officials, Policy: device.ValidationPolicy{SkipHostname: true}}); v.Pin != trusteval.OutcomeSkipped {
		t.Errorf("unpinned host: pin=%v, want skipped", v.Pin)
	}
}

func TestEmptyChainRejected(t *testing.T) {
	p := buildPKI(t)
	e := trusteval.New(certgen.Epoch)
	v := e.Evaluate(trusteval.Request{Host: "good.example.com", Store: p.officials,
		Policy: device.ValidationPolicy{AcceptAll: true, SkipHostname: true, BypassPins: true}})
	if v.Accepted {
		t.Error("no handshake evidence must never be accepted, whatever the policy")
	}
	if !errors.Is(v.ChainErr, trusteval.ErrNoPresentedChain) {
		t.Errorf("ChainErr = %v", v.ChainErr)
	}
}

// TestEngineHostnameEdgeCases drives the satellite hostname semantics
// through the full engine: leftmost-label-only wildcards, IP SANs, and
// trailing-dot canonicalization.
func TestEngineHostnameEdgeCases(t *testing.T) {
	p := buildPKI(t)
	e := trusteval.New(certgen.Epoch)
	eval := func(leaf *certgen.Issued, host string) trusteval.Verdict {
		return e.Evaluate(trusteval.Request{
			Chain: []*x509.Certificate{leaf.Cert, p.inter.Cert}, Host: host, Port: 443,
			Store: p.officials, Policy: device.ValidationPolicy{},
		})
	}
	cases := []struct {
		name string
		leaf *certgen.Issued
		host string
		ok   bool
	}{
		{"wildcard covers one label", p.wildcard, "api.w.example.com", true},
		{"wildcard rejects two labels", p.wildcard, "a.b.w.example.com", false},
		{"wildcard rejects the bare domain", p.wildcard, "w.example.com", false},
		{"ip SAN matches the literal", p.ipLeaf, "192.0.2.10", true},
		{"ip SAN rejects other address", p.ipLeaf, "192.0.2.11", false},
		{"dns leaf rejects ip literal", p.leaf, "192.0.2.10", false},
		{"trailing dot is canonical", p.leaf, "good.example.com.", true},
		{"case folds", p.leaf, "GOOD.Example.COM", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := eval(tc.leaf, tc.host)
			if got := v.Hostname == trusteval.OutcomePass; got != tc.ok {
				t.Errorf("hostname outcome = %v (err %v), want pass=%v", v.Hostname, v.HostErr, tc.ok)
			}
			if v.Accepted != tc.ok {
				t.Errorf("accepted = %v, want %v", v.Accepted, tc.ok)
			}
		})
	}
}

func TestAttributePrecedenceAndPartition(t *testing.T) {
	// Precedence: the first set signal in Causes() order wins.
	all := trusteval.Signals{StoreTampered: true, AcceptAll: true, SkipHostname: true, BypassedPin: true}
	if c := trusteval.Attribute(all); c != trusteval.CauseStoreTampering {
		t.Errorf("all signals: cause %q", c)
	}
	if c := trusteval.Attribute(trusteval.Signals{AcceptAll: true, SkipHostname: true, BypassedPin: true}); c != trusteval.CauseAppAcceptAll {
		t.Errorf("no tampering: cause %q", c)
	}
	if c := trusteval.Attribute(trusteval.Signals{SkipHostname: true, BypassedPin: true}); c != trusteval.CauseAppNoHostname {
		t.Errorf("hostname+pin: cause %q", c)
	}
	if c := trusteval.Attribute(trusteval.Signals{BypassedPin: true}); c != trusteval.CausePinBypass {
		t.Errorf("pin only: cause %q", c)
	}
	if c := trusteval.Attribute(trusteval.Signals{}); c != trusteval.CauseClean {
		t.Errorf("no signals: cause %q", c)
	}

	// Partition: every signal combination maps to exactly one member of the
	// fixed vocabulary.
	vocab := map[trusteval.Cause]bool{}
	for _, c := range trusteval.Causes() {
		if vocab[c] {
			t.Fatalf("Causes() repeats %q", c)
		}
		vocab[c] = true
	}
	for mask := 0; mask < 16; mask++ {
		s := trusteval.Signals{
			StoreTampered: mask&1 != 0,
			AcceptAll:     mask&2 != 0,
			SkipHostname:  mask&4 != 0,
			BypassedPin:   mask&8 != 0,
		}
		if !vocab[trusteval.Attribute(s)] {
			t.Errorf("signals %+v map outside the Causes() vocabulary", s)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[trusteval.Outcome]string{
		trusteval.OutcomeSkipped:    "skipped",
		trusteval.OutcomePass:       "pass",
		trusteval.OutcomeFail:       "fail",
		trusteval.OutcomeOverridden: "overridden",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	if trusteval.OutcomeFail.Accepted() || !trusteval.OutcomeOverridden.Accepted() || !trusteval.OutcomeSkipped.Accepted() {
		t.Error("Accepted() semantics wrong")
	}
}

func TestObserverCounters(t *testing.T) {
	p := buildPKI(t)
	o := obs.New()
	e := trusteval.New(certgen.Epoch, trusteval.WithObserver(o))
	e.Evaluate(trusteval.Request{Chain: goodChain(p), Host: "good.example.com", Store: p.officials})
	e.Evaluate(trusteval.Request{Chain: forgedChain(p), Host: "good.example.com", Store: p.officials})
	e.Evaluate(trusteval.Request{Chain: forgedChain(p), Host: "good.example.com", Store: p.officials,
		Policy: device.ValidationPolicy{AcceptAll: true}})

	if got := o.Counter(trusteval.KeyEvals).Value(); got != 3 {
		t.Errorf("evals = %d, want 3", got)
	}
	if got := o.Counter(trusteval.KeyEvalAccepted).Value(); got != 2 {
		t.Errorf("accepted = %d, want 2", got)
	}
	if got := o.Counter(trusteval.KeyEvalRejected).Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if got := o.Counter(trusteval.KeyCauseClean).Value(); got != 1 {
		t.Errorf("clean = %d, want 1", got)
	}
	if got := o.Counter(trusteval.KeyCauseAcceptAll).Value(); got != 1 {
		t.Errorf("accept-all = %d, want 1", got)
	}
	if got := o.Counter(trusteval.KeyOverrides).Value(); got != 1 {
		t.Errorf("overrides = %d, want 1", got)
	}
}
