package recommend

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

var (
	envOnce sync.Once
	envNot  *notary.Notary
	envUni  *cauniverse.Universe
	envErr  error
)

func env(t *testing.T) (*notary.Notary, *cauniverse.Universe) {
	t.Helper()
	envOnce.Do(func() {
		envUni = cauniverse.Default()
		var w *tlsnet.World
		w, envErr = tlsnet.NewWorld(tlsnet.Config{Seed: 1, NumLeaves: 3000, Universe: envUni})
		if envErr != nil {
			return
		}
		envNot = notary.New(certgen.Epoch)
		tlsnet.Feed(w, envNot)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envNot, envUni
}

func TestMinimizeAOSP44(t *testing.T) {
	n, u := env(t)
	m := Minimize(n, u.AOSP("4.4"), 1)
	if len(m.Keep)+len(m.Remove) != 150 {
		t.Fatalf("partition covers %d roots, want 150", len(m.Keep)+len(m.Remove))
	}
	// §5.3: 23% of AOSP 4.4 roots validate nothing.
	if f := m.RemovableFraction(); f < 0.19 || f > 0.28 {
		t.Errorf("removable fraction = %.3f, want ≈0.23", f)
	}
	if m.Pruned.Len() != len(m.Keep) {
		t.Errorf("pruned store = %d, keep list = %d", m.Pruned.Len(), len(m.Keep))
	}
	// The original store is untouched.
	if u.AOSP("4.4").Len() != 150 {
		t.Fatal("Minimize mutated the input store")
	}
	// Keep is sorted by descending validations.
	for i := 1; i < len(m.Keep); i++ {
		if m.Keep[i-1].Validations < m.Keep[i].Validations {
			t.Fatal("Keep not sorted by validations")
		}
	}
	// Every removed root validates below threshold.
	for _, u := range m.Remove {
		if u.Validations >= m.Threshold {
			t.Fatalf("removed root validates %d ≥ threshold", u.Validations)
		}
	}
	if !strings.Contains(m.String(), "AOSP 4.4") {
		t.Errorf("String = %q", m.String())
	}
}

func TestZeroThresholdBreakageIsZero(t *testing.T) {
	n, u := env(t)
	m := Minimize(n, u.AOSP("4.4"), 1)
	br := EvaluateBreakage(n, m)
	if br.Broken != 0 {
		t.Errorf("threshold-1 pruning broke %d validations, want 0 (§8's premise)", br.Broken)
	}
	if br.Before != br.After {
		t.Errorf("before=%d after=%d", br.Before, br.After)
	}
	if br.BrokenFraction() != 0 {
		t.Error("broken fraction should be 0")
	}
}

func TestHigherThresholdCausesBreakage(t *testing.T) {
	n, u := env(t)
	m := Minimize(n, u.AOSP("4.4"), 10)
	br := EvaluateBreakage(n, m)
	if br.Broken <= 0 {
		t.Errorf("threshold-10 pruning broke %d validations, want > 0", br.Broken)
	}
	if br.After+br.Broken != br.Before {
		t.Error("breakage arithmetic inconsistent")
	}
}

func TestSweepMonotonic(t *testing.T) {
	n, u := env(t)
	pts := Sweep(n, u.AOSP("4.4"), []int{1, 2, 5, 10, 50})
	if len(pts) != 5 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Removed < pts[i-1].Removed {
			t.Error("removed count must be monotone in threshold")
		}
		if pts[i].Broken < pts[i-1].Broken {
			t.Error("breakage must be monotone in threshold")
		}
	}
	if pts[0].Broken != 0 {
		t.Error("threshold 1 must break nothing")
	}
	if last := pts[len(pts)-1]; last.BrokenFrac <= 0 {
		t.Error("aggressive pruning should break something")
	}
}

func TestMinimizeMozillaMatchesTable4(t *testing.T) {
	n, u := env(t)
	m := Minimize(n, u.Mozilla(), 1)
	if f := m.RemovableFraction(); f < 0.18 || f > 0.27 {
		t.Errorf("Mozilla removable = %.3f, want ≈0.22 (Table 4)", f)
	}
}

func TestThresholdFloor(t *testing.T) {
	n, u := env(t)
	m := Minimize(n, u.AOSP("4.1"), -3)
	if m.Threshold != 1 {
		t.Errorf("threshold floor = %d, want 1", m.Threshold)
	}
}

// TestSweepMatchesPerThreshold pins the one-pass Sweep to the
// per-threshold path: at every threshold it must report exactly what
// Minimize followed by EvaluateBreakage reports.
func TestSweepMatchesPerThreshold(t *testing.T) {
	u := cauniverse.Default()
	thresholds := []int{0, 1, 2, 5, 10, 25, 50, 100}
	for _, seed := range []int64{1, 7} {
		w, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, NumLeaves: 10000, Universe: u})
		if err != nil {
			t.Fatal(err)
		}
		n := notary.New(certgen.Epoch)
		tlsnet.Feed(w, n)
		for _, store := range []*rootstore.Store{u.AOSP("4.4"), u.Mozilla(), u.IOS7()} {
			got := Sweep(n, store, thresholds)
			if len(got) != len(thresholds) {
				t.Fatalf("seed %d %s: %d sweep points, want %d", seed, store.Name(), len(got), len(thresholds))
			}
			for i, th := range thresholds {
				m := Minimize(n, store, th)
				br := EvaluateBreakage(n, m)
				want := SweepPoint{
					Threshold:    th,
					Removed:      len(m.Remove),
					RemovedFrac:  m.RemovableFraction(),
					Broken:       br.Broken,
					BrokenFrac:   br.BrokenFraction(),
					KeptValidate: br.After,
				}
				if got[i] != want {
					t.Errorf("seed %d %s threshold %d: Sweep = %+v, Minimize+EvaluateBreakage = %+v",
						seed, store.Name(), th, got[i], want)
				}
			}
		}
	}
}

// TestMinimizeOrdersTiesByKey gives Minimize six roots that share a
// subject but not a key and validate nothing, as a cacerts directory can:
// every call must list them in one order, by key.
func TestMinimizeOrdersTiesByKey(t *testing.T) {
	g := certgen.NewGenerator(11)
	store := rootstore.New("same-subject roots")
	for i := 0; i < 6; i++ {
		ca, err := g.SelfSignedCA("Example Twin Root", certgen.WithKeyName(fmt.Sprintf("twin-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		store.Add(ca.Cert)
	}
	n := notary.New(certgen.Epoch)
	first := Minimize(n, store, 1).Remove
	if len(first) != 6 {
		t.Fatalf("Remove holds %d roots, want 6", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Identity.Key >= first[i].Identity.Key {
			t.Fatalf("Remove[%d] and Remove[%d] are not in key order", i-1, i)
		}
	}
	for i := 0; i < 50; i++ {
		if got := Minimize(n, store, 1).Remove; !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d returned Remove in another order", i+2)
		}
	}
}
