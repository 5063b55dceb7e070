// Package population synthesizes the Netalyzr-for-Android dataset the paper
// analyzes: a fleet of handsets with composed firmware root stores and the
// measurement sessions observed from them (§4.1: 15,970 sessions, ≥3,835
// handsets, 435 models between November 2013 and April 2014).
//
// The generator is deterministic given a seed and is calibrated to the
// paper's published aggregates: Table 2 manufacturer/model session counts
// (exact), ≈39% of sessions with extended stores, 24% of sessions on rooted
// handsets, ≈6% of rooted sessions carrying rooted-only roots, exactly five
// handsets missing AOSP roots, and exactly one TLS-intercepted session (§7).
package population

import (
	"context"
	"crypto/x509"
	"fmt"
	"math"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/device"
	"tangledmass/internal/parallel"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/stats"
)

// Config parameterizes generation.
type Config struct {
	// Seed drives all randomness. The paper's tables use seed 1.
	Seed int64
	// Universe is the CA universe to draw roots from. Nil means the shared
	// default universe.
	Universe *cauniverse.Universe
	// SessionScale scales every model quota: 1.0 reproduces the paper's
	// 15,970 sessions; smaller values give proportionally smaller fleets
	// for fast tests. Values <= 0 mean 1.0.
	SessionScale float64
}

// Handset is one physical device plus its observed session count.
type Handset struct {
	ID int
	device.Profile
	Rooted bool
	// Device holds the live simulated device (system/user stores, apps).
	Device *device.Device
	// Store is the effective trust store captured for this handset's
	// sessions (system ∪ user, minus disabled).
	Store *rootstore.Store
	// SessionCount is how many Netalyzr sessions ran on this handset.
	SessionCount int
	// AOSPCount / ExtraCount / MissingCount compare Store against the
	// official AOSP store for the handset's Android version (Figure 1 axes).
	AOSPCount    int
	ExtraCount   int
	MissingCount int
	// RootedExclusive reports whether the handset carries a Table 5
	// rooted-only root.
	RootedExclusive bool
	// Intercepted marks the single §7 handset behind the marketing proxy.
	Intercepted bool

	quotaIdx int // index into the quota table, for session rebalancing
}

// Session is one Netalyzr execution.
type Session struct {
	ID      int
	Handset *Handset
	// At is the execution instant, spread deterministically across the
	// paper's collection window (November 2013 – April 2014, §4.1).
	At          time.Time
	Intercepted bool
	// Policy is the app validation profile this execution ran as — a
	// seed-free rotation through the handset's policy set, so the
	// generator and the dataset loader derive identical session policies.
	Policy device.ValidationPolicy
}

// collectionWindow is the measurement period of §4.1.
var (
	collectionStart = certgen.Epoch
	collectionDays  = 181 // Nov 2013 through Apr 2014
)

// sessionTime spreads session instants over the collection window as a
// deterministic function of the session ID.
func sessionTime(id int) time.Time {
	minutes := (int64(id) * 104729) % (int64(collectionDays) * 24 * 60)
	return collectionStart.Add(time.Duration(minutes) * time.Minute)
}

// Population is the generated fleet.
type Population struct {
	Config   Config
	Universe *cauniverse.Universe
	Handsets []*Handset
	Sessions []*Session
}

// Generate builds the fleet deterministically from cfg.
func Generate(cfg Config) (*Population, error) {
	u := cfg.Universe
	if u == nil {
		u = cauniverse.Default()
	}
	scale := cfg.SessionScale
	if scale <= 0 {
		scale = 1.0
	}
	src := stats.NewSource(cfg.Seed)
	p := &Population{Config: cfg, Universe: u}

	missingBudget := 5
	if scale < 1 {
		missingBudget = 1
	}
	userCertSeq := 0

	quotaTargets := make([]int, len(quotas))
	for qi, q := range quotas {
		remaining := int(float64(q.sessions)*scale + 0.5)
		quotaTargets[qi] = remaining
		if remaining <= 0 {
			continue
		}
		models := []string{q.model}
		if q.model == "" {
			models = syntheticModels(q.manufacturer, q.synthModels)
		}
		// Spread the quota over models with a skewed weight profile so a
		// few models dominate, as in real fleets.
		weights := make([]float64, len(models))
		for i := range weights {
			weights[i] = math.Pow(float64(i+1), -0.3)
		}
		for remaining > 0 {
			n := 1 + src.Intn(7) // sessions on this handset, mean 4
			if n > remaining {
				n = remaining
			}
			remaining -= n
			model := models[src.PickWeighted(weights)]
			h, err := p.newHandset(u, src, q.manufacturer, model, n, &missingBudget, &userCertSeq)
			if err != nil {
				return nil, err
			}
			h.quotaIdx = qi
			p.Handsets = append(p.Handsets, h)
		}
	}

	p.placeRootedExclusives(u, src)
	p.placeInterception()
	p.rebalanceSessions(quotaTargets)
	p.assignAppProfiles(cfg.Seed)
	p.finalizeHandsets(u)
	p.emitSessions()
	return p, nil
}

// rebalanceSessions restores each quota group's exact session total after
// the special-case placements trimmed some handsets' counts, so Table 2's
// per-model and per-manufacturer session numbers hold exactly.
func (p *Population) rebalanceSessions(targets []int) {
	current := make([]int, len(targets))
	groups := make([][]*Handset, len(targets))
	for _, h := range p.Handsets {
		current[h.quotaIdx] += h.SessionCount
		groups[h.quotaIdx] = append(groups[h.quotaIdx], h)
	}
	ordinary := func(h *Handset) bool { return !h.RootedExclusive && !h.Intercepted }
	for qi := range targets {
		hs := groups[qi]
		if len(hs) == 0 {
			continue
		}
		for i, guard := 0, 0; current[qi] != targets[qi] && guard < 100*len(hs); i, guard = i+1, guard+1 {
			h := hs[i%len(hs)]
			if !ordinary(h) {
				continue
			}
			if current[qi] < targets[qi] {
				h.SessionCount++
				current[qi]++
			} else if h.SessionCount > 1 {
				h.SessionCount--
				current[qi]--
			}
		}
	}
}

// syntheticModels names a manufacturer's long tail of device models.
func syntheticModels(manufacturer string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-M%03d", manufacturer, i+1)
	}
	return out
}

func pickVersion(src *stats.Source, manufacturer, model string) string {
	switch model {
	case "Nexus 5":
		return "4.4"
	case "Nexus 4":
		return versions[1+src.PickWeighted([]float64{0.4, 0.3, 0.3})]
	case "Nexus 7":
		return versions[1+src.PickWeighted([]float64{0.2, 0.4, 0.4})]
	}
	w, ok := versionWeights[manufacturer]
	if !ok {
		w = versionWeights["default"]
	}
	return versions[src.PickWeighted(w)]
}

func pickOperator(src *stats.Source) operatorDef {
	weights := make([]float64, len(operators))
	for i, o := range operators {
		weights[i] = o.weight
	}
	return operators[src.PickWeighted(weights)]
}

func (p *Population) newHandset(u *cauniverse.Universe, src *stats.Source,
	manufacturer, model string, sessions int,
	missingBudget, userCertSeq *int) (*Handset, error) {

	op := pickOperator(src)
	prof := device.Profile{
		Model:        model,
		Manufacturer: manufacturer,
		Operator:     op.name,
		Country:      op.country,
		Version:      pickVersion(src, manufacturer, model),
	}
	base := u.AOSP(prof.Version)

	// A handful of handsets are missing AOSP roots (§5: "Only 5 handsets
	// were missing some certificates").
	if *missingBudget > 0 && src.Bool(0.002) {
		*missingBudget--
		pruned := base.Clone(base.Name() + " pruned")
		refs := pruned.Refs()
		for i := 0; i < 1+src.Intn(3); i++ {
			pruned.Remove(pruned.Corpus().Identity(refs[src.Intn(len(refs))]))
		}
		base = pruned
	}

	d := device.New(prof, base, bundleFor(u, prof, src))
	h := &Handset{
		ID:           len(p.Handsets) + 1,
		Profile:      prof,
		Device:       d,
		SessionCount: sessions,
	}

	// 24% of sessions run on rooted handsets (§6). Rooting is a handset
	// property; session counts are independent of it, so the handset
	// probability equals the session share.
	if src.Bool(0.24) {
		h.Rooted = true
		d.Root()
	}

	// Rare user-installed VPN roots (§5.2): unique self-signed certs seen
	// on exactly one device each. The install routes through the
	// API-level-gated channel logic: on a rooted handset at API ≥ 19 the
	// installer takes the silent system-store path, leaving a root only
	// rooted devices could carry — a Table 5-shaped install — while
	// everything else lands in the user store as the paper observed.
	if src.Bool(0.015) {
		*userCertSeq++
		vpn, err := u.Generator().SelfSignedCA(fmt.Sprintf("User VPN CA %04d", *userCertSeq),
			certgen.WithOrganization("Personal"), certgen.WithCountry("ZZ"))
		if err != nil {
			return nil, fmt.Errorf("population: issuing user VPN root: %w", err)
		}
		if d.InstallCA(vpn.Cert) == device.ChannelRootInstall {
			h.RootedExclusive = true
		}
	}
	return h, nil
}

// placeRootedExclusives installs the Table 5 roots: the Freedom app's
// "CRAZY HOUSE" root on exactly 70 rooted handsets, and the four one-device
// roots (§6).
func (p *Population) placeRootedExclusives(u *cauniverse.Universe, src *stats.Source) {
	var rooted []*Handset
	for _, h := range p.Handsets {
		if h.Rooted {
			rooted = append(rooted, h)
		}
	}
	if len(rooted) == 0 {
		return
	}
	freedomTarget := 70
	if len(p.Handsets) < 1000 {
		// Scaled-down fleets get a proportional count, at least one.
		freedomTarget = 1 + len(rooted)*70/960
	}
	freedom := device.App{
		Name:         "Freedom",
		InstallRoots: []*x509.Certificate{u.Root("CRAZY HOUSE").Issued.Cert},
	}
	// Deterministic selection: walk the rooted list with a stride so the
	// choices spread across manufacturers.
	stride := len(rooted)/freedomTarget + 1
	installed := 0
	for i := 0; i < len(rooted) && installed < freedomTarget; i += stride {
		h := rooted[i]
		if err := h.Device.Install(freedom); err == nil {
			h.RootedExclusive = true
			// The Freedom fleet's session counts keep rooted-exclusive
			// sessions near 6% of rooted sessions (§6).
			h.SessionCount = 2 + src.Intn(3)
			installed++
		}
	}
	// Single-device roots: MIND OVERFLOW and USER_X on the same device,
	// CDA on a rooted Nexus 7, CIRRUS on one more device.
	singles := [][]string{
		{"MIND OVERFLOW", "USER_X"},
		{"CDA/EMAILADDRESS"},
		{"CIRRUS, PRIVATE"},
	}
	idx := 1
	for _, names := range singles {
		for ; idx < len(rooted); idx++ {
			h := rooted[idx]
			if h.RootedExclusive {
				continue
			}
			ok := true
			for _, n := range names {
				if err := h.Device.AddSystemCert(u.Root(n).Issued.Cert); err != nil {
					ok = false
					break
				}
			}
			if ok {
				h.RootedExclusive = true
				h.SessionCount = 1
				idx++
				break
			}
		}
	}
}

// placeInterception marks one 4.4 Nexus 7 handset as sitting behind the
// marketing-research HTTPS proxy (§7). The proxy needs no root-store change.
func (p *Population) placeInterception() {
	for _, h := range p.Handsets {
		if h.Model == "Nexus 7" && h.Version == "4.4" && !h.Rooted {
			h.Intercepted = true
			h.SessionCount = 1
			return
		}
	}
}

// finalizeHandsets captures each handset's effective store and the Figure 1
// comparison counts. Handsets are independent (each task writes only its
// own *Handset), so the capture fans out on the parallel engine; the error
// is ctx cancellation only, which the background context never produces.
func (p *Population) finalizeHandsets(u *cauniverse.Universe) {
	_ = parallel.ForEach(context.Background(), len(p.Handsets), func(_ context.Context, i int) error {
		h := p.Handsets[i]
		// Loaders that already materialized the effective membership (the
		// columnar reader) pre-set Store; everything else captures it here.
		if h.Store == nil {
			h.Store = h.Device.EffectiveStore()
		}
		return nil
	})
	// A fleet holds far fewer distinct store memberships than handsets
	// (firmware variants repeat across devices), so the AOSP comparison runs
	// once per distinct (version, membership) pair and fans the counts out.
	// Members are matched by identity handle: no certificate is re-interned
	// or re-fingerprinted here.
	type storeCounts struct{ aosp, extra, missing int }
	type membership struct {
		version string
		digest  corpus.Digest // with n, the store's ContentKey
		n       int
	}
	cache := map[membership]storeCounts{}
	for _, h := range p.Handsets {
		key := membership{h.Version, h.Store.ContentDigest(), h.Store.Len()}
		c, ok := cache[key]
		if !ok {
			aosp := u.AOSP(h.Version)
			for _, ref := range h.Store.Refs() {
				if aosp.ContainsRef(h.Store.Corpus(), ref) {
					c.aosp++
				} else {
					c.extra++
				}
			}
			c.missing = aosp.Len() - c.aosp
			cache[key] = c
		}
		h.AOSPCount, h.ExtraCount, h.MissingCount = c.aosp, c.extra, c.missing
	}
}

func (p *Population) emitSessions() {
	total := 0
	for _, h := range p.Handsets {
		total += h.SessionCount
	}
	// One backing array for the whole fleet's sessions: the capacity is
	// exact, so the pointers handed out below stay valid.
	backing := make([]Session, 0, total)
	p.Sessions = make([]*Session, 0, total)
	id := 0
	for _, h := range p.Handsets {
		pols := sessionPolicies(h)
		for i := 0; i < h.SessionCount; i++ {
			id++
			backing = append(backing, Session{
				ID:          id,
				Handset:     h,
				At:          sessionTime(id),
				Intercepted: h.Intercepted && i == 0,
				Policy:      pols[i%len(pols)],
			})
			p.Sessions = append(p.Sessions, &backing[len(backing)-1])
		}
	}
}

// TotalSessions returns the number of sessions generated.
func (p *Population) TotalSessions() int { return len(p.Sessions) }

// Default generates the paper-scale population with seed 1 — the
// configuration every table and figure is produced from.
func Default() (*Population, error) {
	return Generate(Config{Seed: 1})
}

// Assemble builds a Population from pre-constructed handsets — the loader
// path for datasets read back from disk (internal/dataset). Handsets must
// carry zeroed comparison counts; Assemble finalizes them against u's AOSP
// stores and emits the session stream exactly as Generate does.
func Assemble(u *cauniverse.Universe, handsets []*Handset) *Population {
	if u == nil {
		u = cauniverse.Default()
	}
	p := &Population{Universe: u, Handsets: handsets}
	p.finalizeHandsets(u)
	p.emitSessions()
	return p
}
