package dataset

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tangledmass/internal/analysis"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
)

func writeColumnarDir(t *testing.T, p *population.Population) string {
	t.Helper()
	dir := t.TempDir()
	if err := NewWriter(dir, WithFormat(Columnar)).Write(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestColumnarRoundTrip(t *testing.T) {
	orig := genPop(t)
	dir := writeColumnarDir(t, orig)
	if _, err := os.Stat(filepath.Join(dir, columnarFile)); err != nil {
		t.Fatalf("missing %s: %v", columnarFile, err)
	}
	back, err := NewReader(dir).Read(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Handsets) != len(orig.Handsets) {
		t.Fatalf("handsets = %d, want %d", len(back.Handsets), len(orig.Handsets))
	}
	if back.TotalSessions() != orig.TotalSessions() {
		t.Errorf("sessions = %d, want %d", back.TotalSessions(), orig.TotalSessions())
	}
	for i := range orig.Handsets {
		a, b := orig.Handsets[i], back.Handsets[i]
		if a.ID != b.ID || a.Profile != b.Profile {
			t.Fatalf("handset %d identity differs after round-trip", a.ID)
		}
		if a.Rooted != b.Rooted || a.RootedExclusive != b.RootedExclusive || a.Intercepted != b.Intercepted {
			t.Fatalf("handset %d flags differ", a.ID)
		}
		if a.SessionCount != b.SessionCount {
			t.Fatalf("handset %d sessions = %d, want %d", a.ID, b.SessionCount, a.SessionCount)
		}
		if !rootstore.Equal(a.Store, b.Store) {
			t.Fatalf("handset %d store differs after round-trip", a.ID)
		}
		// Rows are written once per distinct membership; every handset's
		// system and user rows must still carry its exact member bytes.
		if a.Device.SystemStore().ContentKey() != b.Device.SystemStore().ContentKey() ||
			a.Device.UserStore().ContentKey() != b.Device.UserStore().ContentKey() {
			t.Fatalf("handset %d system or user membership differs after round-trip", a.ID)
		}
		if a.AOSPCount != b.AOSPCount || a.ExtraCount != b.ExtraCount || a.MissingCount != b.MissingCount {
			t.Fatalf("handset %d counts differ", a.ID)
		}
	}
}

// artifacts marshals every population-only analysis artifact; byte equality
// of the JSON is the cross-format golden check.
func artifacts(t *testing.T, p *population.Population) []byte {
	t.Helper()
	devices, manufacturers := analysis.Table2(p, 10)
	doc := map[string]any{
		"headlines":     analysis.ComputeHeadlines(p),
		"devices":       devices,
		"manufacturers": manufacturers,
		"figure1":       analysis.Figure1(p),
		"figure2":       analysis.Figure2(p, nil, 10),
		"table5":        analysis.Table5(p),
		// Depends on the serialized app profiles: byte equality here proves
		// the policy column round-trips in both formats.
		"trust_attribution": analysis.ComputeTrustAttribution(p),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCrossFormatGoldenArtifacts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p, err := population.Generate(population.Config{Seed: seed, SessionScale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		want := artifacts(t, p)
		jsonlDir, colDir := t.TempDir(), t.TempDir()
		ctx := context.Background()
		if err := NewWriter(jsonlDir, WithFormat(JSONL)).Write(ctx, p); err != nil {
			t.Fatal(err)
		}
		if err := NewWriter(colDir, WithFormat(Columnar)).Write(ctx, p); err != nil {
			t.Fatal(err)
		}
		for name, dir := range map[string]string{"jsonl": jsonlDir, "columnar": colDir} {
			back, err := NewReader(dir).Read(ctx)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if got := artifacts(t, back); string(got) != string(want) {
				t.Errorf("seed %d: %s round-trip changed analysis artifacts", seed, name)
			}
		}
	}
}

// TestPolicyRoundTripBothFormats checks the app-profile column directly:
// every handset's policy set — names, flags and draw order — survives a
// write/read cycle in both formats, and the emitted sessions rotate over
// the same policies as the generated fleet.
func TestPolicyRoundTripBothFormats(t *testing.T) {
	orig := genPop(t)
	ctx := context.Background()
	for _, format := range []Format{JSONL, Columnar} {
		dir := t.TempDir()
		if err := NewWriter(dir, WithFormat(format)).Write(ctx, orig); err != nil {
			t.Fatal(err)
		}
		back, err := NewReader(dir).Read(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range orig.Handsets {
			a, b := orig.Handsets[i], back.Handsets[i]
			pa, pb := a.Device.Policies(), b.Device.Policies()
			if len(pa) == 0 {
				t.Fatalf("%s: handset %d generated with no app profiles", format, a.ID)
			}
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("%s: handset %d policies differ after round-trip:\n%+v\n%+v", format, a.ID, pa, pb)
			}
		}
		for i := range orig.Sessions {
			if orig.Sessions[i].Policy != back.Sessions[i].Policy {
				t.Fatalf("%s: session %d policy differs after round-trip", format, orig.Sessions[i].ID)
			}
		}
	}
}

func TestColumnarDeterministicBytes(t *testing.T) {
	p := genPop(t)
	a, err := os.ReadFile(filepath.Join(writeColumnarDir(t, p), columnarFile))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(writeColumnarDir(t, p), columnarFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("handsets.col should be byte-identical across writes of the same population")
	}
}

func TestColumnarCorruption(t *testing.T) {
	p := genPop(t)
	pristineDir := writeColumnarDir(t, p)
	pristine, err := os.ReadFile(filepath.Join(pristineDir, columnarFile))
	if err != nil {
		t.Fatal(err)
	}
	info, err := NewReader(pristineDir).Inspect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sectionMid := func(name string) int64 {
		for _, s := range info.Sections {
			if s.Name == name {
				return s.Offset + s.Length/2
			}
		}
		t.Fatalf("no %q section", name)
		return 0
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"flipped header byte", func(b []byte) []byte { b[len(columnarMagic)+6] ^= 0x01; return b }},
		{"flipped bit in der table", func(b []byte) []byte { b[sectionMid("der")] ^= 0x40; return b }},
		{"flipped bit in membership column", func(b []byte) []byte { b[sectionMid("system")] ^= 0x40; return b }},
		{"flipped bit in profile column", func(b []byte) []byte { b[sectionMid("profiles")] ^= 0x40; return b }},
		{"truncated mid-section", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated header", func(b []byte) []byte { return b[:len(columnarMagic)+2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			corrupt := tc.mutate(append([]byte(nil), pristine...))
			if err := os.WriteFile(filepath.Join(dir, columnarFile), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := NewReader(dir).Read(context.Background()); err == nil {
				t.Error("Read accepted a corrupt file")
			}
			if _, err := NewReader(dir).Verify(context.Background()); err == nil {
				t.Error("Verify accepted a corrupt file")
			}
		})
	}

	// The pristine file still verifies after all that mutation-of-copies.
	if _, err := NewReader(pristineDir).Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestColumnarInspectAndVerifyInfo(t *testing.T) {
	p := genPop(t)
	dir := writeColumnarDir(t, p)
	for name, f := range map[string]func(context.Context) (*Info, error){
		"inspect": NewReader(dir).Inspect,
		"verify":  NewReader(dir).Verify,
	} {
		info, err := f(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Format != Columnar {
			t.Errorf("%s: format = %s, want columnar", name, info.Format)
		}
		if info.Handsets != len(p.Handsets) {
			t.Errorf("%s: handsets = %d, want %d", name, info.Handsets, len(p.Handsets))
		}
		if info.Sessions != p.TotalSessions() {
			t.Errorf("%s: sessions = %d, want %d", name, info.Sessions, p.TotalSessions())
		}
		if info.Certs == 0 {
			t.Errorf("%s: certs = 0", name)
		}
		if len(info.Sections) != 9 {
			t.Errorf("%s: %d sections, want 9", name, len(info.Sections))
		}
	}
}

func TestJSONLVerify(t *testing.T) {
	p := genPop(t)
	dir := t.TempDir()
	ctx := context.Background()
	if err := NewWriter(dir, WithFormat(JSONL)).Write(ctx, p); err != nil {
		t.Fatal(err)
	}
	info, err := NewReader(dir).Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != JSONL || info.Handsets != len(p.Handsets) || info.Sessions != p.TotalSessions() {
		t.Errorf("jsonl verify info = %+v", info)
	}

	// A dangling fingerprint passes the cheap Inspect but fails Verify.
	if err := os.WriteFile(filepath.Join(dir, certsFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(dir).Verify(ctx); err == nil {
		t.Error("Verify accepted a JSONL dataset with dangling certificate references")
	}
}
