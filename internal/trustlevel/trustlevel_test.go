package trustlevel

import (
	"crypto/x509"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/chain"
	"tangledmass/internal/rootstore"
)

func TestUsageMask(t *testing.T) {
	u := ServerAuth | CodeSigning
	if !u.Has(ServerAuth) || !u.Has(CodeSigning) || u.Has(EmailProtection) {
		t.Error("mask semantics wrong")
	}
	if !AllUsages.Has(ServerAuth | EmailProtection | CodeSigning) {
		t.Error("AllUsages incomplete")
	}
}

func TestPolicyDefaultsAndOverrides(t *testing.T) {
	uni := cauniverse.Default()
	store := uni.AOSP("4.4")
	p := NewPolicy(store, AllUsages)
	someID := certid.IdentityOf(store.Certificates()[0])
	if p.UsageOf(someID) != AllUsages {
		t.Error("default usage not applied")
	}
	p.SetUsage(someID, CodeSigning)
	if p.UsageOf(someID) != CodeSigning {
		t.Error("override not applied")
	}
	// A root outside the store has no usage at all.
	outside := certid.IdentityOf(uni.Root("CRAZY HOUSE").Issued.Cert)
	if p.UsageOf(outside) != 0 {
		t.Error("non-member should have zero usage")
	}
}

func TestAndroidPolicyGrantsEverything(t *testing.T) {
	uni := cauniverse.Default()
	// A device store with a firmware FOTA root, as Motorola ships.
	store := uni.AOSP("4.4").Clone("moto")
	fota := uni.Root("Motorola FOTA Root CA").Issued.Cert
	store.Add(fota)
	p := AndroidPolicy(store)
	if !p.UsageOf(certid.IdentityOf(fota)).Has(ServerAuth) {
		t.Error("Android policy should (problematically) grant FOTA root server-auth")
	}
	if got := len(p.RootsFor(ServerAuth)); got != store.Len() {
		t.Errorf("server-auth roots = %d, want all %d", got, store.Len())
	}
}

func TestMozillaStylePolicyRestricts(t *testing.T) {
	uni := cauniverse.Default()
	store := uni.AggregatedAndroid()
	p := MozillaStylePolicy(uni, store)

	fota := certid.IdentityOf(uni.Root("Motorola FOTA Root CA").Issued.Cert)
	if got := p.UsageOf(fota); got != CodeSigning {
		t.Errorf("FOTA usage = %v, want code-signing only", got)
	}
	cfca := certid.IdentityOf(uni.Root("CFCA Root CA").Issued.Cert)
	if got := p.UsageOf(cfca); got.Has(CodeSigning) || !got.Has(ServerAuth) {
		t.Errorf("recorded extra usage = %v", got)
	}
	shared := certid.IdentityOf(uni.AOSP("4.4").Certificates()[0])
	if p.UsageOf(shared) != AllUsages {
		t.Error("program roots keep full usage")
	}
}

// TestFOTASignedTLSLeaf is the §8 attack-surface demonstration: a leaf for
// gmail.com minted under the firmware-update root validates under Android's
// all-usage policy but not under the Mozilla-style one.
func TestFOTASignedTLSLeaf(t *testing.T) {
	uni := cauniverse.Default()
	fotaRoot := uni.Root("Motorola FOTA Root CA")
	leaf, err := uni.Generator().Leaf(fotaRoot.Issued, "gmail.com",
		certgen.WithKeyName("fota-abuse-leaf"))
	if err != nil {
		t.Fatal(err)
	}
	// Device store: AOSP 4.4 + the FOTA root (a Motorola firmware image).
	store := uni.AOSP("4.4").Clone("moto 4.4")
	store.Add(fotaRoot.Issued.Cert)

	validates := func(p *Policy, u Usage) bool {
		return chain.NewVerifier(p.RootsFor(u), nil, certgen.Epoch).Validates(leaf.Cert)
	}

	if !validates(AndroidPolicy(store), ServerAuth) {
		t.Error("Android policy should accept the FOTA-signed TLS leaf — that is the §8 problem")
	}

	mozilla := MozillaStylePolicy(uni, store)
	if validates(mozilla, ServerAuth) {
		t.Error("Mozilla-style policy must reject the FOTA-signed TLS leaf")
	}
	// But the same root still signs firmware under code-signing usage.
	if !validates(mozilla, CodeSigning) {
		t.Error("FOTA root should remain valid for code-signing")
	}
}

func TestSurfaceReport(t *testing.T) {
	uni := cauniverse.Default()
	store := uni.AggregatedAndroid()
	android := Surface("android", AndroidPolicy(store))
	mozilla := Surface("mozilla-style", MozillaStylePolicy(uni, store))
	if android.ServerAuthRoots != store.Len() {
		t.Errorf("android surface = %d, want %d", android.ServerAuthRoots, store.Len())
	}
	if android.RemovedFraction() != 0 {
		t.Error("android removes nothing")
	}
	// The unrecorded extras (50) plus nothing else lose server-auth.
	want := store.Len() - 50
	if mozilla.ServerAuthRoots != want {
		t.Errorf("mozilla-style surface = %d, want %d", mozilla.ServerAuthRoots, want)
	}
	if f := mozilla.RemovedFraction(); f < 0.15 || f > 0.25 {
		t.Errorf("removed fraction = %.3f, want ≈0.19", f)
	}
}

func TestRootsForReturnsCertificates(t *testing.T) {
	uni := cauniverse.Default()
	p := MozillaStylePolicy(uni, uni.AggregatedAndroid())
	var seen []*x509.Certificate
	seen = p.RootsFor(CodeSigning)
	// Code-signing keeps everything except the zero-usage classes (none of
	// which are in the aggregated store) minus recorded extras (restricted
	// to server-auth+email).
	want := uni.AggregatedAndroid().Len() - 30
	if len(seen) != want {
		t.Errorf("code-signing roots = %d, want %d", len(seen), want)
	}
	s := rootstore.New("check")
	s.AddAll(seen)
	if s.Len() != len(seen) {
		t.Error("duplicate roots returned")
	}
}
