package analysis

import (
	"math"
	"sync"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/tlsnet"
)

var (
	fixOnce sync.Once
	fixPop  *population.Population
	fixNot  *notary.Notary
	fixErr  error
)

// fixtures returns the paper-scale population and a fed Notary, cached for
// the whole test binary.
func fixtures(t *testing.T) (*population.Population, *notary.Notary) {
	t.Helper()
	fixOnce.Do(func() {
		fixPop, fixErr = population.Default()
		if fixErr != nil {
			return
		}
		var w *tlsnet.World
		w, fixErr = tlsnet.NewWorld(tlsnet.Config{Seed: 1, NumLeaves: 5000, Universe: fixPop.Universe})
		if fixErr != nil {
			return
		}
		fixNot = notary.New(certgen.Epoch)
		tlsnet.Feed(w, fixNot)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixPop, fixNot
}

func TestTable1(t *testing.T) {
	rows := Table1(cauniverse.Default())
	want := map[string]int{
		"AOSP 4.1": 139, "AOSP 4.2": 140, "AOSP 4.3": 146, "AOSP 4.4": 150,
		"iOS7": 227, "Mozilla": 153,
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if want[r.Name] != r.Certs {
			t.Errorf("%s = %d, want %d", r.Name, r.Certs, want[r.Name])
		}
	}
}

func TestTable2(t *testing.T) {
	p, _ := fixtures(t)
	devices, manufacturers := Table2(p, 5)
	if len(devices) != 5 || len(manufacturers) != 5 {
		t.Fatal("Table2 should return top-5 rows")
	}
	if devices[0].Name != "SAMSUNG Galaxy SIV" || devices[0].Sessions != 2762 {
		t.Errorf("top device = %+v, want SAMSUNG Galaxy SIV 2762", devices[0])
	}
	if devices[1].Name != "SAMSUNG Galaxy SIII" || devices[1].Sessions != 2108 {
		t.Errorf("second device = %+v", devices[1])
	}
	wantMan := []CountRow{
		{"SAMSUNG", 7709}, {"LG", 2908}, {"ASUS", 1876}, {"HTC", 963}, {"MOTOROLA", 837},
	}
	for i, w := range wantMan {
		if manufacturers[i] != w {
			t.Errorf("manufacturer[%d] = %+v, want %+v", i, manufacturers[i], w)
		}
	}
}

func TestFigure1(t *testing.T) {
	p, _ := fixtures(t)
	pts := Figure1(p)
	if len(pts) == 0 {
		t.Fatal("no scatter points")
	}
	total := 0
	stockSessions := 0
	u := p.Universe
	for _, pt := range pts {
		total += pt.Sessions
		if pt.ExtraCerts == 0 && pt.AOSPCerts == u.AOSP(pt.Version).Len() {
			stockSessions += pt.Sessions
		}
		if pt.Sessions <= 0 {
			t.Fatalf("non-positive session count at %+v", pt)
		}
	}
	if total != p.TotalSessions() {
		t.Errorf("scatter covers %d sessions, want %d", total, p.TotalSessions())
	}
	// Most devices sit exactly on the AOSP line (§5: "most devices have the
	// same number of certificates ... as in their equivalent AOSP
	// distribution").
	if f := float64(stockSessions) / float64(total); f < 0.5 {
		t.Errorf("stock-store session share = %.3f, want > 0.5", f)
	}
}

func TestHeadlines(t *testing.T) {
	p, _ := fixtures(t)
	h := ComputeHeadlines(p)
	if h.TotalSessions != 15970 {
		t.Errorf("sessions = %d", h.TotalSessions)
	}
	if h.ExtendedFraction < 0.36 || h.ExtendedFraction > 0.43 {
		t.Errorf("extended = %.3f, want ≈0.39", h.ExtendedFraction)
	}
	if h.MissingHandsets != 5 {
		t.Errorf("missing handsets = %d, want 5", h.MissingHandsets)
	}
	if h.Over40Fraction41_42 <= 0.10 {
		t.Errorf("over-40 fraction = %.3f, want > 0.10", h.Over40Fraction41_42)
	}
	if h.RootedFraction < 0.21 || h.RootedFraction > 0.27 {
		t.Errorf("rooted = %.3f, want ≈0.24", h.RootedFraction)
	}
	if h.RootedExclusiveOfRoots < 0.04 || h.RootedExclusiveOfRoots > 0.08 {
		t.Errorf("rooted-exclusive = %.3f, want ≈0.06", h.RootedExclusiveOfRoots)
	}
	if h.InterceptedSessions != 1 {
		t.Errorf("intercepted sessions = %d, want 1", h.InterceptedSessions)
	}
	missing := 0
	for _, hs := range p.Handsets {
		if hs.MissingCount > 0 {
			missing++
		}
	}
	if missing != h.MissingHandsets {
		t.Errorf("%d handsets lack AOSP roots, headline says %d", missing, h.MissingHandsets)
	}
}

func TestTable5(t *testing.T) {
	p, _ := fixtures(t)
	rows := Table5(p)
	if len(rows) == 0 {
		t.Fatal("no rooted exclusives found")
	}
	if rows[0].Name != "CRAZY HOUSE" || rows[0].Devices != 70 {
		t.Errorf("top row = %+v, want CRAZY HOUSE on 70 devices", rows[0])
	}
	byName := map[string]int{}
	for _, r := range rows {
		byName[r.Name] = r.Devices
	}
	for _, name := range []string{"MIND OVERFLOW", "USER_X", "CDA/EMAILADDRESS", "CIRRUS, PRIVATE"} {
		if byName[name] != 1 {
			t.Errorf("%s devices = %d, want 1", name, byName[name])
		}
	}
}

func TestMozillaOverlap(t *testing.T) {
	rep := MozillaOverlap(cauniverse.Default())
	if rep.Equivalent != 130 {
		t.Errorf("equivalent overlap = %d, want 130", rep.Equivalent)
	}
	if rep.ByteIdentical != 117 {
		t.Errorf("byte overlap = %d, want 117", rep.ByteIdentical)
	}
}

func TestFigure2(t *testing.T) {
	p, n := fixtures(t)
	cells := Figure2(p, n, 10)
	if len(cells) == 0 {
		t.Fatal("no attribution cells")
	}
	// Samsung devices install the vendor base independent of operator:
	// AddTrust must show on several Samsung groups with substantial ratio.
	foundVendorBase := false
	foundCertiSignVerizon := false
	for _, c := range cells {
		if c.Ratio <= 0 || c.Ratio > 1 {
			t.Fatalf("ratio out of range: %+v", c)
		}
		if len(c.CertHash) != 8 {
			t.Fatalf("bad hash %q", c.CertHash)
		}
		if c.GroupKind == "manufacturer" && c.CertName == "AddTrust Class 1 CA Root" &&
			c.Group == "SAMSUNG 4.1" && c.Ratio > 0.3 {
			foundVendorBase = true
		}
		if c.GroupKind == "operator" && c.CertName == "Certisign AC1S" &&
			c.Group == "VERIZON(US)" {
			foundCertiSignVerizon = true
		}
	}
	if !foundVendorBase {
		t.Error("AddTrust should appear prominently on SAMSUNG 4.1")
	}
	if !foundCertiSignVerizon {
		t.Error("CertiSign should appear under VERIZON (Motorola 4.1 images)")
	}

	shares := ClassShares(cells)
	if shares[ClassNotRecorded] < 0.25 || shares[ClassNotRecorded] > 0.55 {
		t.Errorf("not-recorded share = %.3f, want ≈0.40 (§5)", shares[ClassNotRecorded])
	}
	// Summed over the legend, so a class the legend lacks shows as a
	// shortfall: the printed shares range over Fig2Legend.
	var sum float64
	for _, cl := range Fig2Legend {
		sum += shares[cl]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("class shares over the legend sum to %v", sum)
	}
}

func TestPresenceClass(t *testing.T) {
	p, n := fixtures(t)
	u := p.Universe
	cases := map[string]Fig2Class{
		"AddTrust Class 1 CA Root": ClassMozillaAndIOS7,
		"DoD CLASS 3 Root CA":      ClassIOS7Only,
		"COMODO RSA CA":            ClassMozillaOnly,
		"CFCA Root CA":             ClassOnlyAndroid,
		"Motorola FOTA Root CA":    ClassNotRecorded,
		"CRAZY HOUSE":              ClassNotRecorded,
	}
	for name, want := range cases {
		cert := u.Root(name).Issued.Cert
		if got := presenceClass(cert, u, n); got != want {
			t.Errorf("presenceClass(%s) = %q, want %q", name, got, want)
		}
	}
}

func TestFigure3AndTables(t *testing.T) {
	p, n := fixtures(t)
	u := p.Universe
	cats := Figure3Categories(u)
	if len(cats) != 8 {
		t.Fatalf("categories = %d, want 8", len(cats))
	}
	wantSizes := map[string]int{
		"Non AOSP and non Mozilla Android certs": 96,
		"Non AOSP root certs found on Mozilla's": 16,
		"AOSP 4.4 and Mozilla root certs":        130,
		"AOSP 4.1 certs":                         139,
		"AOSP 4.4 certs":                         150,
		"Mozilla root store certs":               153,
		"iOS 7 root store certs":                 227,
	}
	vals := ValidateCategories(n, cats)
	byName := map[string]CategoryValidation{}
	for _, v := range vals {
		byName[v.Name] = v
	}
	for name, size := range wantSizes {
		if byName[name].TotalRoots != size {
			t.Errorf("%s roots = %d, want %d", name, byName[name].TotalRoots, size)
		}
	}
	// Table 4's zero-validation percentages.
	zeroWant := map[string]float64{
		"Non AOSP and non Mozilla Android certs": 0.72,
		"Non AOSP root certs found on Mozilla's": 0.38,
		"AOSP 4.4 and Mozilla root certs":        0.15,
		"AOSP 4.1 certs":                         0.22,
		"AOSP 4.4 certs":                         0.23,
		"Aggregated Android root certs":          0.40,
		"Mozilla root store certs":               0.22,
		"iOS 7 root store certs":                 0.41,
	}
	for name, want := range zeroWant {
		got := byName[name].ZeroFraction
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%s zero-validation = %.3f, want ≈%.2f (Table 4)", name, got, want)
		}
		if ecdfZero := byName[name].ECDF.ZeroFraction(); math.Abs(ecdfZero-got) > 1e-9 {
			t.Errorf("%s ECDF offset %.3f disagrees with report %.3f", name, ecdfZero, got)
		}
	}
	// The shared category validates the most per-root: its median count
	// dominates the extras'.
	shared := byName["AOSP 4.4 and Mozilla root certs"].ECDF
	extras := byName["Non AOSP and non Mozilla Android certs"].ECDF
	if shared.Quantile(0.5) <= extras.Quantile(0.5) {
		t.Error("shared roots should out-validate non-AOSP/non-Mozilla extras at the median")
	}

	// Table 3 structure.
	t3 := Table3(n, u)
	byName3 := map[string]CategoryValidation{}
	for _, v := range t3 {
		byName3[v.Name] = v
	}
	if byName3["AOSP 4.4"].Validated < byName3["AOSP 4.1"].Validated {
		t.Error("AOSP 4.4 should validate at least as many certs as 4.1 (Table 3)")
	}
	// All six stores stay within a few percent of each other (Table 3's
	// "few practical differences"); iOS7-vs-AOSP ordering is sample noise.
	ref := float64(byName3["AOSP 4.4"].Validated)
	for name, v := range byName3 {
		if r := float64(v.Validated) / ref; r < 0.95 || r > 1.05 {
			t.Errorf("%s validated ratio %.3f vs AOSP 4.4, want near 1", name, r)
		}
	}
}

// TestValidationSignatureChecks pins the signature verifications of the
// paper pass's validation sweep, Table 3 then the Figure 3 categories,
// over a fresh corpus and a 2,000-leaf world. One proc makes the count
// exact: two workers can both miss the memo on one edge. The verifier
// checks only edges into issuers that can reach a studied root, and about
// a quarter of the leaves chain only to roots in no store, so the sweep
// verifies fewer signatures than there are leaves to attribute.
func TestValidationSignatureChecks(t *testing.T) {
	setProcs(t, 1)
	u := cauniverse.Default()
	for _, tc := range []struct {
		seed               int64
		table3, categories int64
	}{
		{1, 1399, 33},
		{7, 1379, 42},
	} {
		w, err := tlsnet.NewWorld(tlsnet.Config{Seed: tc.seed, NumLeaves: 2000, Universe: u})
		if err != nil {
			t.Fatal(err)
		}
		c := corpus.New()
		n := notary.New(certgen.Epoch, notary.WithCorpus(c))
		tlsnet.Feed(w, n)
		start := c.Stats().SignatureChecks
		Table3(n, u)
		mid := c.Stats().SignatureChecks
		ValidateCategories(n, Figure3Categories(u))
		end := c.Stats().SignatureChecks
		if mid-start != tc.table3 || end-mid != tc.categories {
			t.Errorf("seed %d: Table 3 checked %d signatures and the categories %d, want %d and %d",
				tc.seed, mid-start, end-mid, tc.table3, tc.categories)
		}
		if leaves := len(n.UnexpiredLeafRefs()); end-start >= int64(leaves) {
			t.Errorf("seed %d: the sweep checked %d signatures for %d unexpired leaves, want fewer", tc.seed, end-start, leaves)
		}
	}
}
