// Package analysis is the core of the reproduction: the root-store audit
// pipeline that turns the raw substrates (CA universe, device population,
// Notary) into every result the paper reports — store-size and overlap
// tables, the extended-store scatter of Figure 1, the certificate
// attribution matrix of Figure 2, the validation analyses of Tables 3–4 and
// Figure 3, and the rooted-device exclusives of Table 5.
package analysis

import (
	"sort"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
)

// StoreSize is one row of Table 1.
type StoreSize struct {
	Name  string
	Certs int
}

// Table1 reports the number of certificates in each studied root store.
func Table1(u *cauniverse.Universe) []StoreSize {
	out := []StoreSize{}
	for _, v := range cauniverse.AOSPVersions() {
		out = append(out, StoreSize{"AOSP " + v, u.AOSP(v).Len()})
	}
	out = append(out,
		StoreSize{"iOS7", u.IOS7().Len()},
		StoreSize{"Mozilla", u.Mozilla().Len()},
	)
	return out
}

// CountRow is a (name, sessions) pair for Table 2.
type CountRow struct {
	Name     string
	Sessions int
}

// Table2 returns the top-k devices and manufacturers by session count.
func Table2(p *population.Population, k int) (devices, manufacturers []CountRow) {
	c := reduce(p, newTable2Agg)
	return truncRows(c.Devices, k), truncRows(c.Manufacturers, k)
}

func truncRows(rows []CountRow, k int) []CountRow {
	if k < len(rows) {
		return rows[:k]
	}
	return rows
}

func topK(m map[string]int, k int) []CountRow {
	rows := make([]CountRow, 0, len(m))
	for name, n := range m {
		rows = append(rows, CountRow{name, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Sessions != rows[j].Sessions {
			return rows[i].Sessions > rows[j].Sessions
		}
		return rows[i].Name < rows[j].Name
	})
	if k < len(rows) {
		rows = rows[:k]
	}
	return rows
}

// ScatterPoint is one Figure 1 marker: sessions observed at a given
// (manufacturer, version, AOSP-count, extra-count) coordinate.
type ScatterPoint struct {
	Manufacturer string
	Version      string
	AOSPCerts    int
	ExtraCerts   int
	Sessions     int
}

// Figure1 aggregates the fleet into the extended-store scatter: how many
// sessions sit at each (AOSP certs, additional certs) coordinate per
// manufacturer and OS version.
func Figure1(p *population.Population) []ScatterPoint {
	return reduce(p, newFigure1Agg)
}

// Headlines are the §5/§6 prose numbers.
type Headlines struct {
	TotalSessions          int
	Handsets               int
	Models                 int
	UniqueRoots            int
	ExtendedFraction       float64 // sessions with extra certs (≈0.39)
	MissingHandsets        int     // handsets missing AOSP certs (5)
	Over40Fraction41_42    float64 // 4.1/4.2 sessions with >40 additions (>0.10)
	RootedFraction         float64 // sessions on rooted handsets (≈0.24)
	RootedExclusiveOfRoots float64 // rooted sessions with rooted-only certs (≈0.06)
	InterceptedSessions    int     // exactly 1
}

// ComputeHeadlines derives the §5/§6 headline numbers from the fleet.
func ComputeHeadlines(p *population.Population) Headlines {
	return reduce(p, newHeadlinesAgg)
}

// MonthCount is one month of the collection window with its session count.
type MonthCount struct {
	Month    string // "2013-11"
	Sessions int
}

// SessionsPerMonth histograms the fleet's sessions over the §4.1 collection
// window (November 2013 – April 2014).
func SessionsPerMonth(p *population.Population) []MonthCount {
	return reduce(p, newMonthsAgg)
}

// RootedExclusive is one Table 5 row: a root found exclusively on rooted
// handsets.
type RootedExclusive struct {
	Subject string
	Name    string // universe catalog name if known, else the subject CN
	Devices int
}

// Table5 detects certificates that appear exclusively on rooted handsets —
// the §6 methodology. AOSP members are excluded (every handset carries
// them); anything else present on ≥1 rooted and 0 non-rooted handsets is
// reported, sorted by device count.
func Table5(p *population.Population) []RootedExclusive {
	return reduce(p, func() *table5Agg { return newTable5Agg(p.Universe) })
}

// MissingReport lists the handsets missing AOSP roots (§5's "only 5
// handsets").
type MissingReport struct {
	HandsetID int
	Model     string
	Version   string
	Missing   int
}

// MissingHandsets reports every handset whose store lacks AOSP roots.
func MissingHandsets(p *population.Population) []MissingReport {
	out := accumulate(len(p.Handsets),
		func() []MissingReport { return nil },
		func(out []MissingReport, start, end int) []MissingReport {
			for i := start; i < end; i++ {
				h := p.Handsets[i]
				if h.MissingCount > 0 {
					out = append(out, MissingReport{h.ID, h.Model, h.Version, h.MissingCount})
				}
			}
			return out
		},
		func(into, from []MissingReport) []MissingReport { return append(into, from...) })
	sort.Slice(out, func(i, j int) bool { return out[i].HandsetID < out[j].HandsetID })
	return out
}

// OverlapReport quantifies §2's AOSP/Mozilla overlap both ways.
type OverlapReport struct {
	Equivalent    int // subject+key equivalence (Table 4's 130)
	ByteIdentical int // byte-level identity (§2's 117)
}

// MozillaOverlap computes the AOSP 4.4 ∩ Mozilla overlap under both
// identity notions — the ablation behind choosing equivalence.
func MozillaOverlap(u *cauniverse.Universe) OverlapReport {
	return OverlapReport{
		Equivalent:    rootstore.Intersect("i", u.AOSP("4.4"), u.Mozilla()).Len(),
		ByteIdentical: rootstore.ByteIntersectCount(u.AOSP("4.4"), u.Mozilla()),
	}
}
