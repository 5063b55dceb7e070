package analysis

import (
	"context"
	"reflect"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/dataset"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
)

// TestMixedCorpusFleetFoldsByIdentity assembles a fleet whose handsets hold
// stores of two corpora — the first half generated into the shared corpus,
// the second half round-tripped through a columnar file into a private one
// — and checks that the identity-keyed artifacts equal those of the same
// fleet in one corpus: tallies keyed by per-corpus identity handles must
// fold to one row per identity.
func TestMixedCorpusFleetFoldsByIdentity(t *testing.T) {
	ctx := context.Background()
	gen := func() *population.Population {
		p, err := population.Generate(population.Config{Seed: 3, SessionScale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	one := gen()
	dir := t.TempDir()
	if err := dataset.NewWriter(dir, dataset.WithFormat(dataset.Columnar)).Write(ctx, gen()); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.NewReader(dir, dataset.WithCorpus(corpus.New()), dataset.WithUniverse(one.Universe)).Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	half := len(one.Handsets) / 2
	handsets := append(gen().Handsets[:half:half], loaded.Handsets[half:]...)
	mixed := population.Assemble(one.Universe, handsets)

	if got, want := mixed.UniqueRootIdentities(), one.UniqueRootIdentities(); got != want {
		t.Errorf("UniqueRootIdentities = %d, want %d", got, want)
	}
	if got, want := ComputeHeadlines(mixed), ComputeHeadlines(one); !reflect.DeepEqual(got, want) {
		t.Errorf("headlines differ:\n got %+v\nwant %+v", got, want)
	}
	if got, want := Table5(mixed), Table5(one); !reflect.DeepEqual(got, want) {
		t.Errorf("Table 5 differs:\n got %+v\nwant %+v", got, want)
	}
	n := notary.New(certgen.Epoch)
	if got, want := Figure2(mixed, n, 1), Figure2(one, n, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("Figure 2 differs: %d cells, want %d", len(got), len(want))
	}
}
