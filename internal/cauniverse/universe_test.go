package cauniverse

import (
	"crypto/x509"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/chain"
	"tangledmass/internal/rootstore"
)

func TestTable1StoreSizes(t *testing.T) {
	u := Default()
	want := map[string]int{"4.1": 139, "4.2": 140, "4.3": 146, "4.4": 150}
	for v, n := range want {
		if got := u.AOSP(v).Len(); got != n {
			t.Errorf("AOSP %s size = %d, want %d", v, got, n)
		}
	}
	if got := u.Mozilla().Len(); got != 153 {
		t.Errorf("Mozilla size = %d, want 153", got)
	}
	if got := u.IOS7().Len(); got != 227 {
		t.Errorf("iOS7 size = %d, want 227", got)
	}
}

func TestAOSPVersionsAreSupersets(t *testing.T) {
	u := Default()
	vs := AOSPVersions()
	for i := 1; i < len(vs); i++ {
		prev, cur := u.AOSP(vs[i-1]), u.AOSP(vs[i])
		d := rootstore.Diff(prev, cur)
		if len(d.OnlyA) != 0 {
			t.Errorf("AOSP %s lost %d roots present in %s", vs[i], len(d.OnlyA), vs[i-1])
		}
	}
}

func TestMozillaOverlap(t *testing.T) {
	u := Default()
	inter := rootstore.Intersect("i", u.AOSP("4.4"), u.Mozilla())
	if inter.Len() != 130 {
		t.Errorf("equivalence AOSP4.4∩Mozilla = %d, want 130 (Table 4)", inter.Len())
	}
	if got := rootstore.ByteIntersectCount(u.AOSP("4.4"), u.Mozilla()); got != 117 {
		t.Errorf("byte-identical AOSP4.4∩Mozilla = %d, want 117 (§2)", got)
	}
}

func TestAggregatedAndroid(t *testing.T) {
	u := Default()
	agg := u.AggregatedAndroid()
	wantLen := 150 + len(u.Extras())
	if agg.Len() != wantLen {
		t.Errorf("aggregated = %d, want %d", agg.Len(), wantLen)
	}
	// Every extra is non-AOSP by definition.
	for _, r := range u.Extras() {
		if u.AOSP("4.4").Contains(r.Issued.Cert) {
			t.Errorf("extra %q is in AOSP 4.4", r.Name)
		}
	}
}

func TestExpiredRoot(t *testing.T) {
	u := Default()
	exp := u.ExpiredRoot()
	if exp == nil {
		t.Fatal("no expired root")
	}
	if !exp.Issued.Cert.NotAfter.Before(certgen.Epoch) {
		t.Error("expired root is not expired at Epoch")
	}
	// It ships in every AOSP version (§2).
	for _, v := range AOSPVersions() {
		if !u.AOSP(v).Contains(exp.Issued.Cert) {
			t.Errorf("expired root missing from AOSP %s", v)
		}
	}
	if exp.Issues {
		t.Error("expired root must not issue leaves")
	}
}

func TestReissuedRootsEquivalentNotByteEqual(t *testing.T) {
	u := Default()
	for _, r := range u.Roots() {
		if r.Class != SharedReissued {
			continue
		}
		if r.MozillaInstance == nil {
			t.Fatalf("%s: missing Mozilla instance", r.Name)
		}
		if !certid.Equivalent(r.Issued.Cert, r.MozillaInstance.Cert) {
			t.Errorf("%s: instances should be equivalent", r.Name)
		}
		if string(r.Issued.Cert.Raw) == string(r.MozillaInstance.Cert.Raw) {
			t.Errorf("%s: instances should be byte-distinct", r.Name)
		}
	}
}

func TestClassCounts(t *testing.T) {
	u := Default()
	counts := map[Class]int{}
	for _, r := range u.Roots() {
		counts[r.Class]++
	}
	want := map[Class]int{
		SharedByte:           117,
		SharedReissued:       13,
		AOSPOnly:             20,
		MozillaUnobserved:    7,
		ExtraBoth:            7,
		ExtraMozillaOnly:     9,
		ExtraIOSOnly:         16,
		ExtraAndroidRecorded: 30,
		ExtraUnrecorded:      50,
		IOSExclusive:         84,
		RootedOnly:           5,
		Interception:         1,
	}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("class %v count = %d, want %d", c, counts[c], n)
		}
	}
	// "Non AOSP root certs found on Mozilla's" (Table 4) = 16.
	if got := counts[ExtraBoth] + counts[ExtraMozillaOnly]; got != 16 {
		t.Errorf("extras in Mozilla = %d, want 16", got)
	}
}

func TestZeroValidationCalibration(t *testing.T) {
	u := Default()
	zero := func(classes ...Class) (z, total int) {
		set := map[Class]bool{}
		for _, c := range classes {
			set[c] = true
		}
		for _, r := range u.Roots() {
			if !set[r.Class] {
				continue
			}
			total++
			if !r.Issues {
				z++
			}
		}
		return
	}
	check := func(name string, z, total int, wantFrac float64) {
		t.Helper()
		got := float64(z) / float64(total)
		if got < wantFrac-0.03 || got > wantFrac+0.03 {
			t.Errorf("%s: zero fraction %d/%d = %.3f, want ≈%.2f", name, z, total, got, wantFrac)
		}
	}
	z, n := zero(SharedByte, SharedReissued)
	check("AOSP∩Mozilla", z, n, 0.15)
	z, n = zero(SharedByte, SharedReissued, AOSPOnly)
	check("AOSP 4.4", z, n, 0.23)
	z, n = zero(ExtraIOSOnly, ExtraAndroidRecorded, ExtraUnrecorded)
	check("non-AOSP non-Mozilla extras", z, n, 0.72)
	z, n = zero(ExtraBoth, ExtraMozillaOnly)
	check("non-AOSP extras in Mozilla", z, n, 0.38)
}

func TestIssuingRanksContiguous(t *testing.T) {
	u := Default()
	issuing := u.IssuingRoots()
	for i, r := range issuing {
		if r.Rank != i {
			t.Fatalf("issuing[%d].Rank = %d; ranks must be contiguous in order", i, r.Rank)
		}
		if !r.Issues {
			t.Fatalf("non-issuing root %q in IssuingRoots", r.Name)
		}
	}
	for _, r := range u.Roots() {
		if !r.Issues && r.Rank != -1 {
			t.Errorf("non-issuing root %q has rank %d", r.Name, r.Rank)
		}
	}
	// Most popular ranks belong to the AOSP∩Mozilla shared roots — the
	// structural driver of Figure 3's "shared roots validate most certs".
	for i := 0; i < 50; i++ {
		if c := issuing[i].Class; c != SharedByte {
			t.Errorf("rank %d class = %v, want shared-byte", i, c)
		}
	}
}

func TestIssuingRootsValidateTheirLeaves(t *testing.T) {
	u := Default()
	issuing := u.IssuingRoots()
	// Sign a leaf under the most and least popular issuing roots; both must
	// chain to their issuer within the AOSP 4.4 + extras trust set.
	for _, r := range []*Root{issuing[0], issuing[len(issuing)-1]} {
		leaf, err := u.Generator().Leaf(r.Issued, "leaf.example.com")
		if err != nil {
			t.Fatal(err)
		}
		v := chain.NewVerifier([]*x509.Certificate{r.Issued.Cert}, nil, certgen.Epoch)
		if !v.Validates(leaf.Cert) {
			t.Errorf("leaf under %q does not validate", r.Name)
		}
	}
}

func TestRootedOnlyAndInterception(t *testing.T) {
	u := Default()
	var rooted []*Root
	for _, r := range u.Roots() {
		if r.Class == RootedOnly {
			rooted = append(rooted, r)
		}
	}
	if len(rooted) != 5 {
		t.Fatalf("rooted-only roots = %d, want 5 (Table 5)", len(rooted))
	}
	stores := []*rootstore.Store{u.AOSP("4.4"), u.Mozilla(), u.IOS7(), u.AggregatedAndroid()}
	for _, r := range rooted {
		for _, s := range stores[:3] {
			if s.Contains(r.Issued.Cert) {
				t.Errorf("rooted-only root %q found in %s", r.Name, s.Name())
			}
		}
	}
	ic := u.InterceptionRoot()
	if ic == nil {
		t.Fatal("no interception root")
	}
	for _, s := range stores {
		if s.Contains(ic.Issued.Cert) {
			t.Errorf("interception root found in %s", s.Name())
		}
	}
}

func TestRootLookupAndDeterminism(t *testing.T) {
	u1, err := New(7)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := New(7)
	if err != nil {
		t.Fatal(err)
	}
	if u1.Seed() != 7 {
		t.Error("Seed() mismatch")
	}
	a := u1.Root("Motorola FOTA Root CA")
	b := u2.Root("Motorola FOTA Root CA")
	if a == nil || b == nil {
		t.Fatal("catalog root missing")
	}
	if certid.KeyIdentity(a.Issued.Cert) != certid.KeyIdentity(b.Issued.Cert) {
		t.Error("same seed should yield the same key identity")
	}
	if u1.Root("no such root") != nil {
		t.Error("unknown root should be nil")
	}
}

func TestAOSPUnknownVersionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AOSP(unknown) should panic")
		}
	}()
	Default().AOSP("9.9")
}

func TestCatalogCompleteness(t *testing.T) {
	u := Default()
	// Every catalog entry resolves to a live root with a unique name.
	names := map[string]bool{}
	for _, def := range extraCatalog {
		if names[def.name] {
			t.Fatalf("duplicate catalog name %q", def.name)
		}
		names[def.name] = true
		r := u.Root(def.name)
		if r == nil {
			t.Fatalf("catalog root %q missing from universe", def.name)
		}
		if r.Class != def.class {
			t.Fatalf("%q class = %v, want %v", def.name, r.Class, def.class)
		}
	}
	// The Figure 2 label catalog (excluding §5.2 oddballs) has 104 entries;
	// with the 8 oddballs, 112 extras total.
	if len(extraCatalog) != 112 {
		t.Errorf("extras catalog = %d entries, want 112", len(extraCatalog))
	}
	// Each extra's class agrees with its Mozilla and iOS7 membership.
	for _, r := range u.Extras() {
		wantMoz := r.Class == ExtraBoth || r.Class == ExtraMozillaOnly
		if inMoz := u.Mozilla().Contains(r.Issued.Cert); inMoz != wantMoz {
			t.Errorf("%s: class %v but Mozilla membership=%v", r.Name, r.Class, inMoz)
		}
		wantIOS := r.Class == ExtraBoth || r.Class == ExtraIOSOnly
		if inIOS := u.IOS7().Contains(r.Issued.Cert); inIOS != wantIOS {
			t.Errorf("%s: class %v but iOS7 membership=%v", r.Name, r.Class, inIOS)
		}
		if !r.Class.IsExtra() {
			t.Errorf("%s: Extras() returned non-extra class %v", r.Name, r.Class)
		}
	}
}
