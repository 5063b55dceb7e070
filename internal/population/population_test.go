package population

import (
	"sync"
	"testing"

	"tangledmass/internal/cauniverse"
)

// fullPop caches the paper-scale population across tests.
var (
	fullOnce sync.Once
	fullPop  *Population
	fullErr  error
)

func paperPopulation(t *testing.T) *Population {
	t.Helper()
	fullOnce.Do(func() {
		fullPop, fullErr = Default()
	})
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	return fullPop
}

func smallPopulation(t *testing.T, seed int64) *Population {
	t.Helper()
	p, err := Generate(Config{Seed: seed, SessionScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExactSessionTotal(t *testing.T) {
	p := paperPopulation(t)
	if p.TotalSessions() != TotalPaperSessions {
		t.Errorf("sessions = %d, want %d", p.TotalSessions(), TotalPaperSessions)
	}
}

func TestTable2ManufacturerSessions(t *testing.T) {
	p := paperPopulation(t)
	byMan := map[string]int{}
	byModel := map[string]int{}
	for _, s := range p.Sessions {
		byMan[s.Handset.Manufacturer]++
		byModel[s.Handset.Model]++
	}
	wantMan := map[string]int{
		"SAMSUNG": 7709, "LG": 2908, "ASUS": 1876, "HTC": 963, "MOTOROLA": 837,
	}
	for man, want := range wantMan {
		if byMan[man] != want {
			t.Errorf("%s sessions = %d, want %d (Table 2)", man, byMan[man], want)
		}
	}
	wantModel := map[string]int{
		"Galaxy SIV": 2762, "Galaxy SIII": 2108, "Nexus 4": 1331, "Nexus 5": 1010, "Nexus 7": 832,
	}
	for model, want := range wantModel {
		if byModel[model] != want {
			t.Errorf("%s sessions = %d, want %d (Table 2)", model, byModel[model], want)
		}
	}
}

func TestHandsetAndModelCounts(t *testing.T) {
	p := paperPopulation(t)
	if n := len(p.Handsets); n < 3500 || n > 4600 {
		t.Errorf("handsets = %d, want ≈3,835 (§4.1)", n)
	}
	models := map[string]bool{}
	for _, h := range p.Handsets {
		models[h.Manufacturer+"/"+h.Model] = true
	}
	if n := len(models); n < 350 || n > 440 {
		t.Errorf("observed models = %d, want ≈435 (§4.1)", n)
	}
}

func TestRootedExclusiveShare(t *testing.T) {
	p := paperPopulation(t)
	rooted, excl := 0, 0
	for _, s := range p.Sessions {
		if s.Handset.Rooted {
			rooted++
			if s.Handset.RootedExclusive {
				excl++
			}
		}
	}
	share := float64(excl) / float64(rooted)
	if share < 0.04 || share > 0.08 {
		t.Errorf("rooted-exclusive share of rooted sessions = %.3f, want ≈0.06 (§6)", share)
	}
	// And roughly 1.5% of all sessions.
	all := float64(excl) / float64(p.TotalSessions())
	if all < 0.008 || all > 0.022 {
		t.Errorf("rooted-exclusive share of all sessions = %.3f, want ≈0.015", all)
	}
}

func TestFreedomDeviceCount(t *testing.T) {
	p := paperPopulation(t)
	u := p.Universe
	crazy := u.Root("CRAZY HOUSE").Issued.Cert
	n := 0
	for _, h := range p.Handsets {
		if h.Store.Contains(crazy) {
			n++
			if !h.Rooted {
				t.Error("CRAZY HOUSE found on a non-rooted handset")
			}
		}
	}
	if n != 70 {
		t.Errorf("CRAZY HOUSE on %d devices, want 70 (Table 5)", n)
	}
}

func TestSingleDeviceRootedRoots(t *testing.T) {
	p := paperPopulation(t)
	u := p.Universe
	for _, name := range []string{"MIND OVERFLOW", "USER_X", "CDA/EMAILADDRESS", "CIRRUS, PRIVATE"} {
		cert := u.Root(name).Issued.Cert
		n := 0
		for _, h := range p.Handsets {
			if h.Store.Contains(cert) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s on %d devices, want 1 (Table 5)", name, n)
		}
	}
	// MIND OVERFLOW and USER_X share a device (§6).
	var mo, ux *Handset
	for _, h := range p.Handsets {
		if h.Store.Contains(u.Root("MIND OVERFLOW").Issued.Cert) {
			mo = h
		}
		if h.Store.Contains(u.Root("USER_X").Issued.Cert) {
			ux = h
		}
	}
	if mo == nil || mo != ux {
		t.Error("MIND OVERFLOW and USER_X should be on the same device")
	}
}

func TestMissingCertHandsets(t *testing.T) {
	p := paperPopulation(t)
	n := 0
	for _, h := range p.Handsets {
		if h.MissingCount > 0 {
			n++
		}
	}
	if n != 5 {
		t.Errorf("handsets missing AOSP roots = %d, want 5 (§5)", n)
	}
}

func TestSingleInterceptedSession(t *testing.T) {
	p := paperPopulation(t)
	var intercepted []*Session
	for _, s := range p.Sessions {
		if s.Intercepted {
			intercepted = append(intercepted, s)
		}
	}
	if len(intercepted) != 1 {
		t.Fatalf("intercepted sessions = %d, want 1 (§7)", len(intercepted))
	}
	h := intercepted[0].Handset
	if h.Model != "Nexus 7" || h.Version != "4.4" {
		t.Errorf("intercepted handset = %s %s, want Nexus 7 on 4.4", h.Model, h.Version)
	}
	if h.ExtraCount != 0 {
		t.Error("the §7 proxy needs no root-store modification")
	}
}

func TestSessionsSpanCollectionWindow(t *testing.T) {
	p := paperPopulation(t)
	months := map[string]int{}
	for _, s := range p.Sessions {
		months[s.At.Format("2006-01")]++
	}
	for _, m := range []string{"2013-11", "2013-12", "2014-01", "2014-02", "2014-03", "2014-04"} {
		if months[m] == 0 {
			t.Errorf("no sessions in %s", m)
		}
		delete(months, m)
	}
	if len(months) != 0 {
		t.Errorf("sessions outside Nov 2013 – Apr 2014 (§4.1): %v", months)
	}
}

func TestNexusDevicesAreStock(t *testing.T) {
	p := paperPopulation(t)
	for _, h := range p.Handsets {
		if isNexus(h.Model) && h.ExtraCount > 0 && h.Device.UserStore().Len() == 0 && !h.Rooted {
			t.Errorf("non-rooted Nexus %s has %d firmware extras", h.Model, h.ExtraCount)
		}
	}
}

func TestMotorolaAlwaysHasFOTAAndSUPL(t *testing.T) {
	p := paperPopulation(t)
	u := p.Universe
	fota := u.Root("Motorola FOTA Root CA").Issued.Cert
	supl := u.Root("Motorola SUPL Server Root CA").Issued.Cert
	for _, h := range p.Handsets {
		if h.Manufacturer != "MOTOROLA" {
			continue
		}
		if !h.Store.Contains(fota) || !h.Store.Contains(supl) {
			t.Fatalf("Motorola %s missing FOTA/SUPL roots", h.Model)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := smallPopulation(t, 42)
	b := smallPopulation(t, 42)
	if len(a.Handsets) != len(b.Handsets) || a.TotalSessions() != b.TotalSessions() {
		t.Fatal("same seed should reproduce the same fleet shape")
	}
	for i := range a.Handsets {
		ha, hb := a.Handsets[i], b.Handsets[i]
		if ha.Profile != hb.Profile || ha.Rooted != hb.Rooted || ha.Store.Len() != hb.Store.Len() {
			t.Fatalf("handset %d differs between runs", i)
		}
	}
	c := smallPopulation(t, 43)
	same := len(a.Handsets) == len(c.Handsets)
	if same {
		diff := false
		for i := range a.Handsets {
			if a.Handsets[i].Profile != c.Handsets[i].Profile {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds should produce different fleets")
	}
}

func TestSessionsReferenceHandsets(t *testing.T) {
	p := smallPopulation(t, 1)
	counts := map[*Handset]int{}
	for _, s := range p.Sessions {
		if s.Handset == nil {
			t.Fatal("session without handset")
		}
		counts[s.Handset]++
	}
	for _, h := range p.Handsets {
		if counts[h] != h.SessionCount {
			t.Fatalf("handset %d: %d sessions emitted, SessionCount=%d", h.ID, counts[h], h.SessionCount)
		}
	}
}

func TestHandsetCountsConsistent(t *testing.T) {
	p := smallPopulation(t, 1)
	for _, h := range p.Handsets {
		aosp := p.Universe.AOSP(h.Version)
		if h.AOSPCount+h.ExtraCount != h.Store.Len() {
			t.Fatalf("handset %d: AOSP(%d)+Extra(%d) != store(%d)", h.ID, h.AOSPCount, h.ExtraCount, h.Store.Len())
		}
		if h.AOSPCount+h.MissingCount != aosp.Len() {
			t.Fatalf("handset %d: AOSP(%d)+Missing(%d) != base(%d)", h.ID, h.AOSPCount, h.MissingCount, aosp.Len())
		}
	}
}

func TestCustomUniverse(t *testing.T) {
	u, err := cauniverse.New(99)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(Config{Seed: 1, Universe: u, SessionScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if p.Universe != u {
		t.Error("population should use the supplied universe")
	}
}
