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
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
)

// The fleet analyses below are serial folds over the handsets in fleet
// order. A handset's sessions differ only in their ID, their app policy and
// the intercepted flag, so a per-session count is the handset's count
// weighted by its SessionCount; zero-session handsets still count where the
// unit is the handset or its store. Work that depends only on a store runs
// once per distinct membership.

// storeKey names a store's exact membership, as the columnar writer keys
// memberships: its corpus, its order-independent content digest and its
// size.
type storeKey struct {
	c      *corpus.Corpus
	digest corpus.Digest
	n      int
}

func keyOf(s *rootstore.Store) storeKey { return storeKey{s.Corpus(), s.ContentDigest(), s.Len()} }

// storeTally is one distinct effective store and the rooted and non-rooted
// handsets that carry it.
type storeTally struct {
	store             *rootstore.Store
	rooted, nonRooted int
}

// distinctStores folds the fleet's handsets onto their distinct effective
// stores, in order of first sighting. Firmware memberships repeat across
// handsets (the seed-1 fleet's 4,034 handsets carry 207), so a store scan
// over the result runs once per membership.
func distinctStores(p *population.Population) []storeTally {
	index := map[storeKey]int{}
	var out []storeTally
	for _, h := range p.Handsets {
		k := keyOf(h.Store)
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, storeTally{store: h.Store})
		}
		if h.Rooted {
			out[i].rooted++
		} else {
			out[i].nonRooted++
		}
	}
	return out
}

// catalogNames maps each universe root's identity to its catalog name.
func catalogNames(u *cauniverse.Universe) map[certid.Identity]string {
	names := map[certid.Identity]string{}
	for _, r := range u.Roots() {
		names[corpus.IdentityOf(r.Issued.Cert)] = r.Name
	}
	return names
}

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

// model names a device model together with its manufacturer.
type model struct{ manufacturer, name string }

// Table2 returns the top-k devices and manufacturers by session count.
func Table2(p *population.Population, k int) (devices, manufacturers []CountRow) {
	byModel, man := map[model]int{}, map[string]int{}
	for _, h := range p.Handsets {
		if h.SessionCount > 0 {
			byModel[model{h.Manufacturer, h.Model}] += h.SessionCount
			man[h.Manufacturer] += h.SessionCount
		}
	}
	dev := make(map[string]int, len(byModel))
	for m, n := range byModel {
		dev[m.manufacturer+" "+m.name] += n
	}
	return topK(dev, k), topK(man, k)
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
	counts := map[ScatterPoint]int{} // keyed with Sessions zero
	for _, h := range p.Handsets {
		if h.SessionCount > 0 {
			counts[ScatterPoint{h.Manufacturer, h.Version, h.AOSPCount, h.ExtraCount, 0}] += h.SessionCount
		}
	}
	out := make([]ScatterPoint, 0, len(counts))
	for pt, n := range counts {
		pt.Sessions = n
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Manufacturer != b.Manufacturer {
			return a.Manufacturer < b.Manufacturer
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		if a.AOSPCerts != b.AOSPCerts {
			return a.AOSPCerts < b.AOSPCerts
		}
		return a.ExtraCerts < b.ExtraCerts
	})
	return out
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
	out := Headlines{Handsets: len(p.Handsets)}
	models := map[model]bool{}
	var extended, old, oldOver40, rooted, rootedExcl int
	for _, h := range p.Handsets {
		if h.MissingCount > 0 {
			out.MissingHandsets++
		}
		w := h.SessionCount
		if w == 0 {
			continue
		}
		out.TotalSessions += w
		models[model{h.Manufacturer, h.Model}] = true
		if h.ExtraCount > 0 {
			extended += w
		}
		if h.Version == "4.1" || h.Version == "4.2" {
			old += w
			if h.ExtraCount > 40 {
				oldOver40 += w
			}
		}
		if h.Rooted {
			rooted += w
			if h.RootedExclusive {
				rootedExcl += w
			}
		}
		// Only an intercepted handset's first session is flagged.
		if h.Intercepted {
			out.InterceptedSessions++
		}
	}
	out.Models = len(models)
	var roots rootstore.IdentitySet
	for _, st := range distinctStores(p) {
		roots.AddStore(st.store)
	}
	out.UniqueRoots = roots.Len()
	if out.TotalSessions > 0 {
		out.ExtendedFraction = float64(extended) / float64(out.TotalSessions)
		out.RootedFraction = float64(rooted) / float64(out.TotalSessions)
	}
	if old > 0 {
		out.Over40Fraction41_42 = float64(oldOver40) / float64(old)
	}
	if rooted > 0 {
		out.RootedExclusiveOfRoots = float64(rootedExcl) / float64(rooted)
	}
	return out
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
	type tally struct {
		rooted, nonRooted int
		cn                string
	}
	aosp44 := p.Universe.AOSP("4.4")
	// Stores fold in order of first sighting, so an identity's CN is the
	// one carried by the first handset (in fleet order) that introduced it.
	byID := map[certid.Identity]*tally{}
	for _, st := range distinctStores(p) {
		sc := st.store.Corpus()
		for i := range st.store.Len() {
			ref := st.store.RefAt(i)
			if aosp44.ContainsRef(sc, ref) {
				continue
			}
			id := sc.Identity(ref)
			t := byID[id]
			if t == nil {
				t = &tally{cn: sc.Cert(ref).Subject.CommonName}
				byID[id] = t
			}
			t.rooted += st.rooted
			t.nonRooted += st.nonRooted
		}
	}
	names := catalogNames(p.Universe)
	var out []RootedExclusive
	for id, t := range byID {
		if t.rooted >= 1 && t.nonRooted == 0 {
			name := names[id]
			if name == "" {
				name = t.cn
			}
			if name == "" {
				name = id.Subject
			}
			out = append(out, RootedExclusive{Subject: id.Subject, Name: name, Devices: t.rooted})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].Name < out[j].Name
	})
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
