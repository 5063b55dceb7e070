package analysis

import (
	"encoding/json"
	"testing"

	"tangledmass/internal/population"
)

var batchSizes = []int{1, 7, 64}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// oneShotJSON folds the whole fleet into a with a single add and returns
// the marshalled result.
func oneShotJSON[A aggregate[A, R], R any](t *testing.T, p *population.Population, a A) string {
	t.Helper()
	a.add(batch{handsets: p.Handsets, sessions: p.Sessions})
	return mustJSON(t, a.result())
}

// checkIncremental verifies the aggregate contract for one analysis: adding
// batches one at a time, and merging independent per-batch aggregates in
// batch order, are both byte-identical to a single add of the whole fleet.
func checkIncremental[A aggregate[A, R], R any](t *testing.T, name string, p *population.Population, newAgg func() A) {
	t.Helper()
	want := oneShotJSON(t, p, newAgg())
	offs := sessionOffsets(p)
	for _, size := range batchSizes {
		seq, merged := newAgg(), newAgg()
		for start := 0; start < len(p.Handsets); start += size {
			end := min(start+size, len(p.Handsets))
			b := batch{handsets: p.Handsets[start:end], sessions: p.Sessions[offs[start]:offs[end]]}
			seq.add(b)
			part := newAgg()
			part.add(b)
			merged.merge(part)
		}
		if got := mustJSON(t, seq.result()); got != want {
			t.Errorf("%s: sequential adds at batch size %d diverge from one-shot", name, size)
		}
		if got := mustJSON(t, merged.result()); got != want {
			t.Errorf("%s: ordered merge at batch size %d diverges from one-shot", name, size)
		}
	}
}

func TestAggregatesIncrementalEqualsOneShot(t *testing.T) {
	p, n := fixtures(t)
	checkIncremental(t, "Table2", p, newTable2Agg)
	checkIncremental(t, "Figure1", p, newFigure1Agg)
	checkIncremental(t, "Headlines", p, newHeadlinesAgg)
	checkIncremental(t, "Months", p, newMonthsAgg)
	checkIncremental(t, "Table5", p, func() *table5Agg { return newTable5Agg(p.Universe) })
	checkIncremental(t, "Figure2", p, func() *figure2Agg { return newFigure2Agg(p.Universe, n, 10) })
	checkIncremental(t, "TrustAttribution", p, newTrustAttrAgg)
}

// TestReduceMatchesOneShotAggregates pins the acceptance matrix: for seeds
// 1–3 every package function's sharded reduce, which slices the fleet into
// one batch per worker, is byte-identical to a one-shot aggregate fold at
// every GOMAXPROCS.
func TestReduceMatchesOneShotAggregates(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p, err := population.Generate(population.Config{Seed: seed, SessionScale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		arts := []struct {
			name string
			want string
			got  func() any
		}{
			{"Table2", oneShotJSON(t, p, newTable2Agg()), func() any {
				d, m := Table2(p, len(p.Handsets))
				return table2Counts{Devices: d, Manufacturers: m}
			}},
			{"Figure1", oneShotJSON(t, p, newFigure1Agg()), func() any { return Figure1(p) }},
			{"Headlines", oneShotJSON(t, p, newHeadlinesAgg()), func() any { return ComputeHeadlines(p) }},
			{"Months", oneShotJSON(t, p, newMonthsAgg()), func() any { return SessionsPerMonth(p) }},
			{"Table5", oneShotJSON(t, p, newTable5Agg(p.Universe)), func() any { return Table5(p) }},
			{"Figure2", oneShotJSON(t, p, newFigure2Agg(p.Universe, nil, 10)), func() any { return Figure2(p, nil, 10) }},
			{"TrustAttribution", oneShotJSON(t, p, newTrustAttrAgg()), func() any { return ComputeTrustAttribution(p) }},
		}
		for _, procs := range procCounts {
			setProcs(t, procs)
			for _, a := range arts {
				if got := mustJSON(t, a.got()); got != a.want {
					t.Errorf("seed %d procs %d: %s diverges from one-shot aggregate", seed, procs, a.name)
				}
			}
		}
	}
}
