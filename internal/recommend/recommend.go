// Package recommend implements the paper's §8 recommendation pipeline,
// following Perl et al. ("You Won't Be Needing These Any More"), whose
// result the paper's analysis confirms: a large share of root-store
// certificates validate no observed TLS traffic and could be disabled "with
// little negative effect on the user experience" (§5.3).
//
// Given a Notary and a root store, Minimize ranks every root by how many
// observed certificates it validates, proposes a pruned store, and
// quantifies the breakage the pruning would cause against the same
// observation corpus — making the cost of each removal explicit rather than
// assumed.
package recommend

import (
	"fmt"
	"sort"

	"tangledmass/internal/certid"
	"tangledmass/internal/notary"
	"tangledmass/internal/rootstore"
)

// RootUsage is one root's observed utility.
type RootUsage struct {
	Identity certid.Identity
	// Validations is the number of non-expired Notary leaves the root
	// validates.
	Validations int
}

// Minimization is the outcome of a pruning proposal.
type Minimization struct {
	// Store is the store analyzed.
	Store *rootstore.Store
	// Threshold is the minimum validation count a root needed to be kept.
	Threshold int
	// Keep and Remove partition the store's roots, each sorted by
	// descending validations, then subject, then key.
	Keep   []RootUsage
	Remove []RootUsage
	// Pruned is the store with Remove applied.
	Pruned *rootstore.Store
}

// RemovableFraction is the share of roots proposed for removal.
func (m *Minimization) RemovableFraction() float64 {
	total := len(m.Keep) + len(m.Remove)
	if total == 0 {
		return 0
	}
	return float64(len(m.Remove)) / float64(total)
}

// String summarizes the proposal.
func (m *Minimization) String() string {
	return fmt.Sprintf("%s: remove %d of %d roots (%.0f%%) at threshold %d",
		m.Store.Name(), len(m.Remove), len(m.Keep)+len(m.Remove),
		m.RemovableFraction()*100, m.Threshold)
}

// Minimize proposes removing every root that validates fewer than threshold
// observed certificates. Threshold 1 is the paper's criterion: remove roots
// that validate nothing.
func Minimize(n *notary.Notary, store *rootstore.Store, threshold int) *Minimization {
	if threshold < 1 {
		threshold = 1
	}
	rep := n.ValidateOne(store)
	m := &Minimization{Store: store, Threshold: threshold}
	for id, count := range rep.PerRoot {
		u := RootUsage{Identity: id, Validations: count}
		if count >= threshold {
			m.Keep = append(m.Keep, u)
		} else {
			m.Remove = append(m.Remove, u)
		}
	}
	sortUsage(m.Keep)
	sortUsage(m.Remove)
	m.Pruned = store.Clone(store.Name() + " (pruned)")
	for _, u := range m.Remove {
		m.Pruned.Remove(u.Identity)
	}
	return m
}

func sortUsage(us []RootUsage) {
	sort.Slice(us, func(i, j int) bool {
		if us[i].Validations != us[j].Validations {
			return us[i].Validations > us[j].Validations
		}
		if us[i].Identity.Subject != us[j].Identity.Subject {
			return us[i].Identity.Subject < us[j].Identity.Subject
		}
		return us[i].Identity.Key < us[j].Identity.Key
	})
}

// Breakage quantifies what a pruning proposal costs: how many Notary leaves
// validated by the original store no longer validate under the pruned one.
type Breakage struct {
	Before int // leaves validated by the original store
	After  int // leaves validated by the pruned store
	Broken int // Before - After
}

// BrokenFraction is Broken/Before (0 when Before is 0).
func (b Breakage) BrokenFraction() float64 {
	if b.Before == 0 {
		return 0
	}
	return float64(b.Broken) / float64(b.Before)
}

// EvaluateBreakage measures a proposal against the Notary corpus. At
// threshold 1 breakage is zero by construction — removed roots validated
// nothing — which is the empirical core of the §8 recommendation.
func EvaluateBreakage(n *notary.Notary, m *Minimization) Breakage {
	reports := n.Validate(m.Store, m.Pruned)
	b := Breakage{Before: reports[0].Validated, After: reports[1].Validated}
	b.Broken = b.Before - b.After
	return b
}

// SweepPoint is one threshold of a Sweep: what Minimize would remove there
// and what EvaluateBreakage would measure — the ablation behind "how
// aggressively can a store be pruned before users notice".
type SweepPoint struct {
	Threshold    int
	Removed      int
	RemovedFrac  float64
	Broken       int
	BrokenFrac   float64
	KeptValidate int
}

// Sweep evaluates the given thresholds in order, returning for each the
// point Minimize and EvaluateBreakage would give. It attributes the
// store's unexpired Notary leaves once: a threshold removes every root
// validating fewer than max(threshold, 1) leaves, and a leaf stays
// validated while one of its validating roots is kept.
func Sweep(n *notary.Notary, store *rootstore.Store, thresholds []int) []SweepPoint {
	attrs := n.AttributeLeaves([]*rootstore.Store{store}, n.UnexpiredLeafRefs())
	counts := make(map[certid.Identity]int, store.Len())
	for _, a := range attrs {
		for _, id := range a.Roots {
			counts[id]++
		}
	}
	// best[i] is the largest count among leaf i's validating roots: the
	// leaf survives exactly the thresholds that keep that root.
	best := make([]int, len(attrs))
	for i, a := range attrs {
		for _, id := range a.Roots {
			best[i] = max(best[i], counts[id])
		}
	}
	out := make([]SweepPoint, 0, len(thresholds))
	for _, th := range thresholds {
		floor := max(th, 1)
		pt := SweepPoint{Threshold: th}
		for _, ref := range store.Refs() {
			if counts[store.Corpus().Identity(ref)] < floor {
				pt.Removed++
			}
		}
		if store.Len() > 0 {
			pt.RemovedFrac = float64(pt.Removed) / float64(store.Len())
		}
		var br Breakage
		for _, b := range best {
			if b >= 1 {
				br.Before++
			}
			if b >= floor {
				br.After++
			}
		}
		br.Broken = br.Before - br.After
		pt.Broken, pt.BrokenFrac, pt.KeptValidate = br.Broken, br.BrokenFraction(), br.After
		out = append(out, pt)
	}
	return out
}
