package dataset

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"tangledmass/internal/corpus"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
)

// samePopulation reports the first difference between two populations
// read from datasets: handset metadata, flags, session counts, store
// memberships, AOSP comparison counts, app profiles and the session stream.
func samePopulation(a, b *population.Population) error {
	if len(a.Handsets) != len(b.Handsets) || a.TotalSessions() != b.TotalSessions() {
		return fmt.Errorf("%d handsets and %d sessions, want %d and %d",
			len(b.Handsets), b.TotalSessions(), len(a.Handsets), a.TotalSessions())
	}
	for i, x := range a.Handsets {
		y := b.Handsets[i]
		switch {
		case x.ID != y.ID || x.Profile != y.Profile:
			return fmt.Errorf("handset %d identity differs", x.ID)
		case x.Rooted != y.Rooted || x.RootedExclusive != y.RootedExclusive || x.Intercepted != y.Intercepted:
			return fmt.Errorf("handset %d flags differ", x.ID)
		case x.SessionCount != y.SessionCount:
			return fmt.Errorf("handset %d sessions = %d, want %d", x.ID, y.SessionCount, x.SessionCount)
		case !rootstore.Equal(x.Store, y.Store),
			x.Device.SystemStore().ContentKey() != y.Device.SystemStore().ContentKey(),
			x.Device.UserStore().ContentKey() != y.Device.UserStore().ContentKey():
			return fmt.Errorf("handset %d store membership differs", x.ID)
		case x.AOSPCount != y.AOSPCount || x.ExtraCount != y.ExtraCount || x.MissingCount != y.MissingCount:
			return fmt.Errorf("handset %d AOSP comparison counts differ", x.ID)
		case !reflect.DeepEqual(x.Device.Policies(), y.Device.Policies()):
			return fmt.Errorf("handset %d app profiles differ", x.ID)
		}
	}
	for i, s := range a.Sessions {
		if t := b.Sessions[i]; s.ID != t.ID || s.Handset.ID != t.Handset.ID || s.Intercepted != t.Intercepted || s.Policy != t.Policy {
			return fmt.Errorf("session %d differs", s.ID)
		}
	}
	return nil
}

// FuzzJSONLRead writes each input as handsets.jsonl beside a fixed
// certs.pem and reads it. Reading must never panic, Read must never return
// a population from a dataset Verify rejects, Inspect's counts must match
// the population Read built, and an accepted dataset must convert to the
// columnar format and read back to the same population.
func FuzzJSONLRead(f *testing.F) {
	p, err := population.Generate(population.Config{Seed: 3, SessionScale: 0.005})
	if err != nil {
		f.Fatal(err)
	}
	fresh := f.TempDir()
	if err := NewWriter(fresh, WithFormat(JSONL)).Write(context.Background(), p); err != nil {
		f.Fatal(err)
	}
	certs, err := os.ReadFile(filepath.Join(fresh, certsFile))
	if err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(fresh, handsetsFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	// Each seed rewrites one field of the first record into a handset the
	// reader must refuse rather than assemble.
	first := func(field, value string) []byte {
		loc := regexp.MustCompile(`"` + field + `":("[^"]*"|-?[0-9]+)`).FindIndex(written)
		return slices.Concat(written[:loc[0]], []byte(`"`+field+`":`+value), written[loc[1]:])
	}
	f.Add(first("version", `"9.4"`))                                   // no AOSP store
	f.Add(first("sessions", "-1"))                                     // a negative count
	f.Add(first("sessions", "-1099511627776"))                         // drives the session total negative
	f.Add(first("sessions", fmt.Sprint(maxHandsetSessions+1)))         // a count that sizes Read's allocation
	f.Add([]byte(`{"id":1,"version":"4.4","sessions":2,"system":[]}`)) // one bare handset
	f.Add([]byte("null\n"))
	f.Add(crowdedJSONL()) // more sessions than the file has bytes

	dir, col := f.TempDir(), f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, certsFile), certs, 0o644); err != nil {
		f.Fatal(err)
	}
	cp := corpus.New()
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, handsetsFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewReader(dir, WithFormat(JSONL), WithCorpus(cp))
		pop, err := r.Read(ctx)
		if err != nil {
			return
		}
		if _, err := r.Verify(ctx); err != nil {
			t.Fatalf("Read accepted a dataset Verify rejects: %v", err)
		}
		info, err := r.Inspect(ctx)
		if err != nil {
			t.Fatalf("Read accepted a dataset Inspect rejects: %v", err)
		}
		if info.Handsets != len(pop.Handsets) || info.Sessions != pop.TotalSessions() {
			t.Fatalf("Inspect counts %d handsets, %d sessions; Read built %d, %d",
				info.Handsets, info.Sessions, len(pop.Handsets), pop.TotalSessions())
		}
		if err := NewWriter(col, WithFormat(Columnar), WithCorpus(cp)).Write(ctx, pop); err != nil {
			t.Fatalf("converting an accepted dataset to columnar: %v", err)
		}
		back, err := NewReader(col, WithFormat(Columnar), WithCorpus(cp)).Read(ctx)
		if err != nil {
			t.Fatalf("the columnar copy of an accepted dataset does not read back: %v", err)
		}
		if err := samePopulation(pop, back); err != nil {
			t.Fatalf("the columnar copy reads back differently: %v", err)
		}
	})
}

// crowdedJSONL is a handsets.jsonl of 100 bare handsets at the
// per-handset session bound: 102,400 sessions in about 5 kB.
func crowdedJSONL() []byte {
	var b []byte
	for i := 0; i < 100; i++ {
		b = fmt.Appendf(b, `{"id":%d,"version":"4.4","sessions":%d,"system":[]}`+"\n", i, maxHandsetSessions)
	}
	return b
}

// TestSessionTotalBounded: a fleet whose handsets each stay within the
// per-handset bound, but whose sessions outnumber the bytes of the file
// declaring them, is refused by Read, Inspect and Verify in both formats.
func TestSessionTotalBounded(t *testing.T) {
	jsonl, col := t.TempDir(), t.TempDir()
	for _, f := range []struct {
		dir, name string
		data      []byte
	}{
		{jsonl, certsFile, nil},
		{jsonl, handsetsFile, crowdedJSONL()},
		{col, columnarFile, reseal(handsetFile(100, 100, maxHandsetSessions, "4.4"))},
	} {
		if err := os.WriteFile(filepath.Join(f.dir, f.name), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for total, ok := range map[int]bool{-1: false, 0: true, 10: true, 11: false} {
		if err := checkSessionTotal(total, 10); (err == nil) != ok {
			t.Errorf("%d sessions in 10 bytes: error %v", total, err)
		}
	}
	ctx := context.Background()
	for _, dir := range []string{jsonl, col} {
		r := NewReader(dir, WithCorpus(corpus.New()))
		if p, err := r.Read(ctx); err == nil {
			t.Errorf("%s: Read accepted %d sessions", r.format(), p.TotalSessions())
		}
		if info, err := r.Inspect(ctx); err == nil {
			t.Errorf("%s: Inspect accepted %d sessions in %d bytes", r.format(), info.Sessions, info.Bytes)
		}
		if _, err := r.Verify(ctx); err == nil {
			t.Errorf("%s: Verify accepted the fleet", r.format())
		}
	}
}

// TestJSONLRejectsUnassemblableHandsets: Read and Verify both refuse a
// handset on a version with no AOSP store, or with a session count below
// zero or above the bound.
func TestJSONLRejectsUnassemblableHandsets(t *testing.T) {
	for _, rec := range []string{
		`{"id":1,"version":"9.4","sessions":1}`,
		`{"id":1,"version":"4.4","sessions":-1}`,
		fmt.Sprintf(`{"id":1,"version":"4.4","sessions":%d}`, maxHandsetSessions+1),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, certsFile), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, handsetsFile), []byte(rec+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewReader(dir, WithCorpus(corpus.New()))
		if _, err := r.Read(context.Background()); err == nil {
			t.Errorf("Read accepted %s", rec)
		}
		if _, err := r.Verify(context.Background()); err == nil {
			t.Errorf("Verify accepted %s", rec)
		}
	}
}
