package population

import (
	"testing"

	"tangledmass/internal/device"
)

func TestEveryHandsetDrawsOneToThreeDistinctProfiles(t *testing.T) {
	p := smallPopulation(t, 5)
	for _, h := range p.Handsets {
		pols := h.Device.Policies()
		if len(pols) < 1 || len(pols) > 3 {
			t.Fatalf("handset %d carries %d profiles, want 1..3", h.ID, len(pols))
		}
		seen := map[string]bool{}
		for _, pol := range pols {
			if pol.App == "" {
				t.Fatalf("handset %d has an unnamed profile", h.ID)
			}
			if seen[pol.App] {
				t.Fatalf("handset %d drew %q twice", h.ID, pol.App)
			}
			seen[pol.App] = true
		}
	}
}

func TestProfileAssignmentDeterministicPerHandset(t *testing.T) {
	// The profile stream is a pure function of (seed, handset ID): two
	// generations of the same seed agree handset by handset, and the
	// independent stream means session-scale changes cannot perturb it.
	a := smallPopulation(t, 5)
	b, err := Generate(Config{Seed: 5, SessionScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(Config{Seed: 5, SessionScale: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range a.Handsets {
		pa, pb, pc := h.Device.Policies(), b.Handsets[i].Device.Policies(), c.Handsets[i].Device.Policies()
		if len(pa) != len(pb) || len(pa) != len(pc) {
			t.Fatalf("handset %d: profile counts differ across generations", h.ID)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("handset %d profile %d differs across same-config generations", h.ID, j)
			}
			if pa[j] != pc[j] {
				t.Fatalf("handset %d profile %d depends on session scale", h.ID, j)
			}
		}
	}

	// A different seed reassigns profiles somewhere.
	other := smallPopulation(t, 6)
	differs := false
	for i := range a.Handsets {
		pa, po := a.Handsets[i].Device.Policies(), other.Handsets[i].Device.Policies()
		if len(pa) != len(po) {
			differs = true
			break
		}
		for j := range pa {
			if pa[j] != po[j] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("seed change left every profile assignment untouched")
	}
}

func TestSessionPoliciesRotateOverHandsetProfiles(t *testing.T) {
	p := smallPopulation(t, 5)
	perHandset := map[int][]*Session{}
	for _, s := range p.Sessions {
		perHandset[s.Handset.ID] = append(perHandset[s.Handset.ID], s)
	}
	for _, h := range p.Handsets {
		pols := sessionPolicies(h)
		for i, s := range perHandset[h.ID] {
			if want := pols[i%len(pols)]; s.Policy != want {
				t.Fatalf("handset %d session %d policy = %+v, want rotation slot %+v",
					h.ID, i, s.Policy, want)
			}
		}
	}
}

func TestSessionPoliciesFallBackToPlatformDefault(t *testing.T) {
	h := &Handset{Device: device.New(device.Profile{Model: "Bare", Version: "4.4"},
		paperPopulation(t).Universe.AOSP("4.4"), nil)}
	pols := sessionPolicies(h)
	if len(pols) != 1 || pols[0] != (device.ValidationPolicy{App: "platform-default"}) {
		t.Errorf("policy-free fallback = %+v, want one strict platform-default", pols)
	}
}

func TestTamperChannelClassification(t *testing.T) {
	p := smallPopulation(t, 5)
	counts := map[device.Channel]int{}
	for _, h := range p.Handsets {
		ch := h.TamperChannel()
		counts[ch]++
		switch ch {
		case device.ChannelRootInstall:
			if !h.RootedExclusive {
				t.Fatalf("handset %d classified system without rooted-exclusive state", h.ID)
			}
		case device.ChannelUser:
			if h.Device.UserStore().Len() == 0 {
				t.Fatalf("handset %d classified user with an empty user store", h.ID)
			}
		case device.ChannelFirmware:
			if h.RootedExclusive || h.Device.UserStore().Len() > 0 {
				t.Fatalf("handset %d classified firmware despite post-build additions", h.ID)
			}
		}
	}
	if counts[device.ChannelFirmware] == 0 {
		t.Error("no stock handsets in the fleet")
	}
	if counts[device.ChannelUser]+counts[device.ChannelRootInstall] == 0 {
		t.Error("no tampered handsets in the fleet")
	}
}

func TestProfileCatalogWeightsAreProbabilities(t *testing.T) {
	var sum float64
	names := map[string]bool{}
	for _, e := range appProfileCatalog {
		if e.weight <= 0 {
			t.Errorf("profile %q has non-positive weight", e.profile.App)
		}
		if names[e.profile.App] {
			t.Errorf("catalog repeats %q", e.profile.App)
		}
		names[e.profile.App] = true
		sum += e.weight
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("catalog weights sum to %v, want 1", sum)
	}
}
