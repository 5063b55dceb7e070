package analysis

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/tlsnet"
)

// procCounts are the GOMAXPROCS values every parallel-vs-serial equality
// test runs at: the inline serial path, a typical pool, and a prime count
// that never divides the input evenly.
var procCounts = []int{1, 4, 17}

// setProcs sets GOMAXPROCS, which sizes every fan-out's pool, until t
// ends. GOMAXPROCS is process-wide, so no test in this package may call
// t.Parallel.
func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelMatchesSerial pins the determinism contract for every
// Table/Figure aggregation: at any GOMAXPROCS it returns exactly the
// one-proc (serial-fold) result.
func TestParallelMatchesSerial(t *testing.T) {
	p, n := fixtures(t)
	cases := []struct {
		name string
		fn   func() any
	}{
		{"Table2", func() any {
			dev, man := Table2(p, 10)
			return [2][]CountRow{dev, man}
		}},
		{"Figure1", func() any { return Figure1(p) }},
		{"ComputeHeadlines", func() any { return ComputeHeadlines(p) }},
		{"Table5", func() any { return Table5(p) }},
		{"Figure2", func() any { return Figure2(p, n, 10) }},
		{"TrustAttribution", func() any { return ComputeTrustAttribution(p) }},
		{"Table3", func() any { return Table3(n, p.Universe) }},
		{"Figure3ECDF", func() any { return ValidateCategories(n, Figure3Categories(p.Universe)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setProcs(t, 1)
			want := tc.fn()
			for _, procs := range procCounts[1:] {
				setProcs(t, procs)
				if got := tc.fn(); !reflect.DeepEqual(got, want) {
					t.Fatalf("procs=%d: result differs from serial", procs)
				}
			}
		})
	}
}

// TestArtifactBytesIdenticalAcrossWorkerCounts is the seed-sweep JSON gate:
// for seeds 1–3 the marshalled analysis artifact, ingest included, must be
// byte-identical between one proc and many — same seed, same bytes, any
// worker count.
func TestArtifactBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pop, err := population.Generate(population.Config{Seed: seed, SessionScale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		w, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, NumLeaves: 500, Universe: pop.Universe})
		if err != nil {
			t.Fatal(err)
		}
		artifact := func(procs int) []byte {
			setProcs(t, procs)
			ndb := notary.New(certgen.Epoch)
			tlsnet.Feed(w, ndb)
			dev, man := Table2(pop, 10)
			doc := map[string]any{
				"table2_devices": dev,
				"table2_makers":  man,
				"figure1":        Figure1(pop),
				"headlines":      ComputeHeadlines(pop),
				"table5":         Table5(pop),
				"figure2":        Figure2(pop, ndb, 5),
				"trust_attr":     ComputeTrustAttribution(pop),
				"table3":         Table3(ndb, pop.Universe),
				"figure3":        ValidateCategories(ndb, Figure3Categories(pop.Universe)),
				"port_dist":      ndb.PortDistribution(),
				"unexpired":      ndb.NumUnexpired(),
				"unique_entries": ndb.NumUnique(),
				"total_sessions": pop.TotalSessions(),
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		serial := artifact(1)
		for _, procs := range procCounts[1:] {
			if got := artifact(procs); string(got) != string(serial) {
				t.Fatalf("seed %d procs %d: JSON artifact differs from serial bytes", seed, procs)
			}
		}
	}
}

// TestNotaryValidateCacheAndWorkersInvariant checks that the chain cache
// and the worker count are invisible in Validate's results: cache on/off
// and every GOMAXPROCS produce deeply equal store reports.
func TestNotaryValidateCacheAndWorkersInvariant(t *testing.T) {
	p, _ := fixtures(t)
	w, err := tlsnet.NewWorld(tlsnet.Config{Seed: 7, NumLeaves: 800, Universe: p.Universe})
	if err != nil {
		t.Fatal(err)
	}
	validate := func(opts ...notary.Option) (*notary.Notary, []*notary.StoreReport) {
		ndb := notary.New(certgen.Epoch, opts...)
		tlsnet.Feed(w, ndb)
		return ndb, ndb.Validate(p.Universe.AOSP("4.4"), p.Universe.Mozilla(), p.Universe.IOS7())
	}
	setProcs(t, 1)
	_, baseline := validate(notary.WithChainCache(nil))
	for _, procs := range procCounts {
		setProcs(t, procs)
		for _, cached := range []bool{false, true} {
			var opts []notary.Option
			if !cached {
				opts = append(opts, notary.WithChainCache(nil))
			}
			ndb, reports := validate(opts...)
			for i, rep := range reports {
				if rep.Validated != baseline[i].Validated ||
					!reflect.DeepEqual(rep.PerRoot, baseline[i].PerRoot) {
					t.Fatalf("procs=%d cached=%v: report %d differs from uncached serial",
						procs, cached, i)
				}
			}
			if cached {
				if st := ndb.CacheStats(); st.Misses == 0 {
					t.Fatalf("procs=%d: cache enabled but never consulted", procs)
				}
			} else if st := ndb.CacheStats(); st.Hits+st.Misses != 0 {
				t.Fatalf("procs=%d: disabled cache recorded lookups %+v", procs, st)
			}
		}
	}
}
