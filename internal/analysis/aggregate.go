package analysis

import (
	"context"
	"crypto/x509"
	"sort"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/parallel"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
)

// batch is one contiguous slice of the fleet: a run of handsets together
// with exactly the sessions those handsets emitted. Sessions are emitted
// contiguously per handset in handset order, so any handset range [i, j)
// pairs with the session range [offsets[i], offsets[j]).
type batch struct {
	handsets []*population.Handset
	sessions []*population.Session
}

// aggregate is a fleet analysis reduce can fold in parallel: add folds one
// batch (O(batch) work), merge absorbs an aggregate of the batches that
// follow the receiver's, and result reads the artifact. Merging in batch
// order keeps the order-sensitive analyses (Table 5's first-sighting CN,
// Figure 2's last-sighting certificate instance) byte-identical to a
// one-shot fold at any batch size or worker count. An aggregate is not
// safe for concurrent use; reduce gives each shard its own.
type aggregate[A, R any] interface {
	add(b batch)
	merge(later A)
	result() R
}

// sessionOffsets returns len(p.Handsets)+1 prefix sums of per-handset
// session counts: handset i owns p.Sessions[offs[i]:offs[i+1]].
func sessionOffsets(p *population.Population) []int {
	offs := make([]int, len(p.Handsets)+1)
	for i, h := range p.Handsets {
		offs[i+1] = offs[i] + h.SessionCount
	}
	return offs
}

// accumulate folds [0, n) on the parallel engine's GOMAXPROCS-sized pool.
// Aggregations cannot fail and run under a background context, so the
// error is dropped by design.
func accumulate[A any](n int, newA func() A, fold func(acc A, start, end int) A, merge func(into, from A) A) A {
	acc, _ := parallel.Accumulate(context.Background(), n, newA, fold, merge)
	return acc
}

// reduce folds the whole fleet through fresh aggregates: each worker adds
// its contiguous shard of handsets as one batch, and the shard aggregates
// merge in ascending shard order — so the result is byte-identical to
// newAgg().add(everything) at any worker count.
func reduce[A aggregate[A, R], R any](p *population.Population, newAgg func() A) R {
	offs := sessionOffsets(p)
	agg := accumulate(len(p.Handsets),
		newAgg,
		func(a A, start, end int) A {
			a.add(batch{
				handsets: p.Handsets[start:end],
				sessions: p.Sessions[offs[start]:offs[end]],
			})
			return a
		},
		func(into, from A) A {
			into.merge(from)
			return into
		})
	return agg.result()
}

// table2Counts is the full (untruncated) Table 2 aggregation: every device
// and manufacturer with its session count, busiest first.
type table2Counts struct {
	Devices       []CountRow
	Manufacturers []CountRow
}

type table2Agg struct {
	dev, man map[string]int
}

// newTable2Agg counts sessions per device and per manufacturer.
func newTable2Agg() *table2Agg {
	return &table2Agg{dev: map[string]int{}, man: map[string]int{}}
}

func (a *table2Agg) add(b batch) {
	for _, s := range b.sessions {
		a.dev[s.Handset.Manufacturer+" "+s.Handset.Model]++
		a.man[s.Handset.Manufacturer]++
	}
}

func (a *table2Agg) merge(o *table2Agg) {
	for k, n := range o.dev {
		a.dev[k] += n
	}
	for k, n := range o.man {
		a.man[k] += n
	}
}

func (a *table2Agg) result() table2Counts {
	return table2Counts{Devices: topK(a.dev, len(a.dev)), Manufacturers: topK(a.man, len(a.man))}
}

type fig1Key struct {
	man, ver   string
	aosp, xtra int
}

type figure1Agg struct {
	counts map[fig1Key]int
}

// newFigure1Agg counts sessions per Figure 1 scatter coordinate.
func newFigure1Agg() *figure1Agg {
	return &figure1Agg{counts: map[fig1Key]int{}}
}

func (a *figure1Agg) add(b batch) {
	for _, s := range b.sessions {
		h := s.Handset
		a.counts[fig1Key{h.Manufacturer, h.Version, h.AOSPCount, h.ExtraCount}]++
	}
}

func (a *figure1Agg) merge(o *figure1Agg) {
	for k, n := range o.counts {
		a.counts[k] += n
	}
}

func (a *figure1Agg) result() []ScatterPoint {
	out := make([]ScatterPoint, 0, len(a.counts))
	for k, n := range a.counts {
		out = append(out, ScatterPoint{k.man, k.ver, k.aosp, k.xtra, n})
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

type headlinesAgg struct {
	sessions, handsets                           int
	models                                       map[string]bool
	roots                                        rootstore.IdentitySet
	extended, old, oldOver40, rooted, rootedExcl int
	intercepted, missing                         int
}

// newHeadlinesAgg derives the §5/§6 headline numbers incrementally.
func newHeadlinesAgg() *headlinesAgg {
	return &headlinesAgg{models: map[string]bool{}}
}

func (a *headlinesAgg) add(b batch) {
	for _, h := range b.handsets {
		a.handsets++
		if h.MissingCount > 0 {
			a.missing++
		}
		a.roots.AddStore(h.Store)
	}
	for _, s := range b.sessions {
		a.sessions++
		hs := s.Handset
		a.models[hs.Manufacturer+"/"+hs.Model] = true
		if hs.ExtraCount > 0 {
			a.extended++
		}
		if hs.Version == "4.1" || hs.Version == "4.2" {
			a.old++
			if hs.ExtraCount > 40 {
				a.oldOver40++
			}
		}
		if hs.Rooted {
			a.rooted++
			if hs.RootedExclusive {
				a.rootedExcl++
			}
		}
		if s.Intercepted {
			a.intercepted++
		}
	}
}

func (a *headlinesAgg) merge(o *headlinesAgg) {
	a.sessions += o.sessions
	a.handsets += o.handsets
	for m := range o.models {
		a.models[m] = true
	}
	a.roots.Merge(&o.roots)
	a.extended += o.extended
	a.old += o.old
	a.oldOver40 += o.oldOver40
	a.rooted += o.rooted
	a.rootedExcl += o.rootedExcl
	a.intercepted += o.intercepted
	a.missing += o.missing
}

func (a *headlinesAgg) result() Headlines {
	h := Headlines{
		TotalSessions:       a.sessions,
		Handsets:            a.handsets,
		Models:              len(a.models),
		UniqueRoots:         a.roots.Len(),
		MissingHandsets:     a.missing,
		InterceptedSessions: a.intercepted,
	}
	if a.sessions > 0 {
		h.ExtendedFraction = float64(a.extended) / float64(a.sessions)
		h.RootedFraction = float64(a.rooted) / float64(a.sessions)
	}
	if a.old > 0 {
		h.Over40Fraction41_42 = float64(a.oldOver40) / float64(a.old)
	}
	if a.rooted > 0 {
		h.RootedExclusiveOfRoots = float64(a.rootedExcl) / float64(a.rooted)
	}
	return h
}

type monthsAgg struct {
	counts map[string]int
}

// newMonthsAgg histograms sessions over the collection window.
func newMonthsAgg() *monthsAgg {
	return &monthsAgg{counts: map[string]int{}}
}

func (a *monthsAgg) add(b batch) {
	for _, s := range b.sessions {
		a.counts[s.At.Format("2006-01")]++
	}
}

func (a *monthsAgg) merge(o *monthsAgg) {
	for m, n := range o.counts {
		a.counts[m] += n
	}
}

func (a *monthsAgg) result() []MonthCount {
	months := make([]string, 0, len(a.counts))
	for m := range a.counts {
		months = append(months, m)
	}
	sort.Strings(months)
	out := make([]MonthCount, len(months))
	for i, m := range months {
		out[i] = MonthCount{Month: m, Sessions: a.counts[m]}
	}
	return out
}

// rootKey names one root identity by its handle in the corpus holding it.
// Per-root tallies are keyed by it, so counting hashes integers. A fleet's
// stores share one corpus; results fold keys of different corpora that
// name one identity.
type rootKey struct {
	c *corpus.Corpus
	h corpus.IdentityRef
}

func keyOf(c *corpus.Corpus, ref corpus.Ref) rootKey { return rootKey{c, c.IdentityRefOf(ref)} }

func (k rootKey) identity() certid.Identity { return k.c.IdentityEntry(k.h).Identity }

type rootTally struct {
	rooted, nonRooted int
	cn                string
}

type table5Agg struct {
	u      *cauniverse.Universe
	aosp44 *rootstore.Store
	counts map[rootKey]*rootTally
}

// newTable5Agg detects certificates appearing exclusively on rooted
// handsets (the §6 methodology), incrementally over handset batches.
func newTable5Agg(u *cauniverse.Universe) *table5Agg {
	return &table5Agg{
		u:      u,
		aosp44: u.AOSP("4.4"),
		counts: map[rootKey]*rootTally{},
	}
}

func (a *table5Agg) add(b batch) {
	// The CN recorded for an identity is the one carried by the first
	// handset (in fleet order) that introduced it — order-sensitive, and
	// deterministic because batches add in fleet order and merge keeps the
	// earlier aggregate's sighting.
	for _, h := range b.handsets {
		sc := h.Store.Corpus()
		for _, ref := range h.Store.Refs() {
			if a.aosp44.ContainsRef(sc, ref) {
				continue
			}
			k := keyOf(sc, ref)
			t := a.counts[k]
			if t == nil {
				t = &rootTally{cn: sc.Cert(ref).Subject.CommonName}
				a.counts[k] = t
			}
			if h.Rooted {
				t.rooted++
			} else {
				t.nonRooted++
			}
		}
	}
}

func (a *table5Agg) merge(o *table5Agg) {
	for k, t := range o.counts {
		if have := a.counts[k]; have != nil {
			have.rooted += t.rooted
			have.nonRooted += t.nonRooted
			continue
		}
		// The CN travels with the identity's creating batch only: later
		// batches never override an earlier first sighting.
		a.counts[k] = t
	}
}

func (a *table5Agg) result() []RootedExclusive {
	nameByID := map[certid.Identity]string{}
	for _, r := range a.u.Roots() {
		nameByID[corpus.IdentityOf(r.Issued.Cert)] = r.Name
	}
	// A subject's CN is part of its identity, so folding keys never
	// disagrees on it.
	byID := map[certid.Identity]rootTally{}
	for k, t := range a.counts {
		id := k.identity()
		sum := byID[id]
		sum.rooted += t.rooted
		sum.nonRooted += t.nonRooted
		sum.cn = t.cn
		byID[id] = sum
	}
	var out []RootedExclusive
	for id, t := range byID {
		if t.rooted >= 1 && t.nonRooted == 0 {
			name := nameByID[id]
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

type fig2GroupKey struct{ kind, name string }

// fig2Addition is one firmware-added certificate of a handset's store.
type fig2Addition struct {
	key  rootKey
	cert *x509.Certificate
}

// fig2Sighting is a certificate instance and the session that carried it.
type fig2Sighting struct {
	cert    *x509.Certificate
	session int
}

type figure2Agg struct {
	u           *cauniverse.Universe
	n           *notary.Notary
	minSessions int
	groupTotal  map[fig2GroupKey]int
	certCount   map[fig2GroupKey]map[rootKey]int
	certObj     map[rootKey]fig2Sighting
	// additions memoizes each handset's firmware additions in store
	// order: a handset's stores are fixed once the population exists, and
	// it recurs in every one of its sessions.
	additions map[*population.Handset][]fig2Addition
}

// newFigure2Agg builds the Figure 2 attribution matrix incrementally
// over session batches. Groups with fewer than minSessions modified-store
// sessions are omitted at result time.
func newFigure2Agg(u *cauniverse.Universe, n *notary.Notary, minSessions int) *figure2Agg {
	return &figure2Agg{
		u:           u,
		n:           n,
		minSessions: minSessions,
		groupTotal:  map[fig2GroupKey]int{},
		certCount:   map[fig2GroupKey]map[rootKey]int{},
		certObj:     map[rootKey]fig2Sighting{},
		additions:   map[*population.Handset][]fig2Addition{},
	}
}

// additionsOf returns h's firmware additions: its store's certificates
// outside both the AOSP store of its version and its user store.
// User-installed roots (the §5.2 per-device VPN certificates) are not
// vendor or operator behaviour.
func (a *figure2Agg) additionsOf(h *population.Handset) []fig2Addition {
	if adds, ok := a.additions[h]; ok {
		return adds
	}
	aosp := a.u.AOSP(h.Version)
	user := h.Device.UserStore()
	sc := h.Store.Corpus()
	var adds []fig2Addition
	for _, ref := range h.Store.Refs() {
		if aosp.ContainsRef(sc, ref) || user.ContainsRef(sc, ref) {
			continue
		}
		adds = append(adds, fig2Addition{keyOf(sc, ref), sc.Cert(ref)})
	}
	a.additions[h] = adds
	return adds
}

func (a *figure2Agg) add(b batch) {
	for _, s := range b.sessions {
		h := s.Handset
		// Rooted handsets are analyzed separately (§4.1: "We analyzed
		// rooted handsets separately from operator and manufacturer
		// root stores to avoid any bias") — see Table5.
		if h.ExtraCount == 0 || h.Rooted {
			continue
		}
		adds := a.additionsOf(h)
		groups := []fig2GroupKey{
			{"manufacturer", h.Manufacturer + " " + h.Version},
			{"operator", h.Operator + "(" + h.Country + ")"},
		}
		for _, g := range groups {
			a.groupTotal[g]++
			if a.certCount[g] == nil {
				a.certCount[g] = map[rootKey]int{}
			}
			for _, ad := range adds {
				a.certCount[g][ad.key]++
			}
		}
		for _, ad := range adds {
			a.certObj[ad.key] = fig2Sighting{ad.cert, s.ID}
		}
	}
}

func (a *figure2Agg) merge(o *figure2Agg) {
	for g, n := range o.groupTotal {
		a.groupTotal[g] += n
	}
	for g, m := range o.certCount {
		if a.certCount[g] == nil {
			a.certCount[g] = m
			continue
		}
		for k, n := range m {
			a.certCount[g][k] += n
		}
	}
	// Serial Adds overwrite certObj on every sighting, so the
	// representative instance is the LAST one in session order: the later
	// aggregate overrides the earlier one.
	for k, sg := range o.certObj {
		a.certObj[k] = sg
	}
}

func (a *figure2Agg) result() []AttributionCell {
	nameByID := map[certid.Identity]string{}
	for _, r := range a.u.Roots() {
		nameByID[corpus.IdentityOf(r.Issued.Cert)] = r.Name
	}
	// Fold keys by identity: counts add, and the representative instance
	// is the last sighting in session order.
	reps := map[certid.Identity]fig2Sighting{}
	for k, sg := range a.certObj {
		id := k.identity()
		if have, ok := reps[id]; !ok || sg.session > have.session {
			reps[id] = sg
		}
	}
	var cells []AttributionCell
	counts := map[certid.Identity]int{}
	for g, total := range a.groupTotal {
		if total < a.minSessions {
			continue
		}
		clear(counts)
		for k, n := range a.certCount[g] {
			counts[k.identity()] += n
		}
		for id, count := range counts {
			cert := reps[id].cert
			name := nameByID[id]
			if name == "" {
				name = cert.Subject.CommonName
			}
			cells = append(cells, AttributionCell{
				Group:     g.name,
				GroupKind: g.kind,
				CertName:  name,
				CertHash:  certid.SubjectHashString(cert),
				Sessions:  count,
				Ratio:     float64(count) / float64(total),
				Class:     presenceClass(cert, a.u, a.n),
			})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.GroupKind != b.GroupKind {
			return a.GroupKind < b.GroupKind
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.CertName < b.CertName
	})
	return cells
}
