// Package cauniverse constructs the synthetic certificate-authority universe
// the reproduction runs on: every root certificate population the paper
// analyzes (AOSP 4.1–4.4, Mozilla, iOS7, the non-AOSP additions observed on
// devices, the rooted-device-only roots of Table 5, and the §7 interception
// root), with real keys and real self-signatures.
//
// The universe reproduces the paper's published structure exactly where the
// paper pins it down:
//
//   - store sizes: AOSP 4.1=139, 4.2=140, 4.3=146, 4.4=150; Mozilla=153;
//     iOS7=227 (Table 1);
//   - 117 of AOSP 4.4's roots are byte-identical in Mozilla's store (§2),
//     and 130 are shared under subject+key equivalence (Table 4) — the 13
//     extra roots are re-issued instances differing only in validity;
//   - one AOSP root is already expired at the measurement epoch (§2, the
//     Firmaprofesional case);
//   - per-category fractions of roots that validate no Notary certificate
//     (Table 4) are fixed by per-root issuance flags.
package cauniverse

import (
	"fmt"
	"sync"

	"tangledmass/internal/certgen"
	"tangledmass/internal/rootstore"
)

// Store-size constants from Table 1 and the overlap structure of §2/Table 4.
const (
	NumSharedByte     = 117 // byte-identical in AOSP and Mozilla
	NumSharedReissued = 13  // equivalence-shared (subject+key), byte-distinct
	NumAOSPOnly       = 20
	NumMozillaOnly    = 7 // Mozilla-only roots never observed on Android
	NumIOSExclusive   = 84

	AOSP41Size = 139
	AOSP42Size = 140
	AOSP43Size = 146
	AOSP44Size = 150

	// iOS7 membership among shared/AOSP-only roots (chosen so that
	// |iOS7| = 227 and the Table 4 zero-validation share of iOS7 ≈ 41%).
	iosSharedByteIssuing = 90 // shared-byte indices 0..89
	iosAOSPOnly          = 10 // AOSP-only class indices 0..9
)

// ExpiredRootName is the AOSP root that expired during the measurement
// window yet still ships in every AOSP store (§2).
const ExpiredRootName = "Autoridad de Certificacion Firmaprofesional (analogue)"

// Root is one certificate authority in the universe with the metadata the
// analyses need.
type Root struct {
	// Name is the CA's display name (for extras, the Figure 2 label).
	Name string
	// Class is the membership taxonomy bucket.
	Class Class
	// Issues reports whether this root issues TLS server certificates in
	// the simulated internet. Roots with Issues == false validate no Notary
	// certificate — they are the per-category zero-validation populations
	// of Table 4.
	Issues bool
	// Rank is the popularity rank among issuing roots (0 = most popular,
	// drives the Zipf leaf-issuance distribution), or -1 if !Issues.
	Rank int
	// Issued is the certificate and private key.
	Issued *certgen.Issued
	// MozillaInstance is the byte-distinct re-issued instance carried by
	// Mozilla's store; non-nil only for SharedReissued roots.
	MozillaInstance *certgen.Issued
}

// Universe is the full CA population. Construct with New; all methods are
// safe for concurrent use after construction.
type Universe struct {
	seed   int64
	gen    *certgen.Generator
	roots  []*Root
	byName map[string]*Root

	aosp       map[string]*rootstore.Store
	mozilla    *rootstore.Store
	ios7       *rootstore.Store
	aggregated *rootstore.Store
	issuing    []*Root
}

// AOSPVersions lists the Android versions with an official AOSP store, in
// release order.
func AOSPVersions() []string { return []string{"4.1", "4.2", "4.3", "4.4"} }

// New constructs the universe deterministically from seed.
func New(seed int64) (*Universe, error) {
	u := &Universe{
		seed:   seed,
		gen:    certgen.NewGenerator(seed),
		byName: make(map[string]*Root),
		aosp:   make(map[string]*rootstore.Store),
	}
	if err := u.build(); err != nil {
		return nil, err
	}
	return u, nil
}

var (
	defaultOnce sync.Once
	defaultU    *Universe
	defaultErr  error
)

// Default returns the shared seed-1 universe that all paper tables and
// figures are generated from. It panics if construction fails, which only a
// programming error can cause.
func Default() *Universe {
	defaultOnce.Do(func() {
		defaultU, defaultErr = New(1)
	})
	if defaultErr != nil {
		panic("cauniverse: building default universe: " + defaultErr.Error())
	}
	return defaultU
}

func (u *Universe) addRoot(r *Root) error {
	if _, dup := u.byName[r.Name]; dup {
		return fmt.Errorf("cauniverse: duplicate root name %q", r.Name)
	}
	u.byName[r.Name] = r
	u.roots = append(u.roots, r)
	return nil
}

// newCA issues one self-signed CA. A few shared roots use RSA keys so the
// RSA-modulus identity path of the paper's methodology is exercised in the
// full universe, not only in unit tests.
func (u *Universe) newCA(name, org, country string, opts ...certgen.Option) (*certgen.Issued, error) {
	all := append([]certgen.Option{
		certgen.WithOrganization(org),
		certgen.WithCountry(country),
	}, opts...)
	return u.gen.SelfSignedCA(name, all...)
}

func (u *Universe) build() error {
	nextRank := 0
	rank := func(issues bool) int {
		if !issues {
			return -1
		}
		r := nextRank
		nextRank++
		return r
	}

	// Shared byte-identical roots. The last zeroValidation[SharedByte] do
	// not issue; the rest carry the most popular ranks.
	sharedZeroStart := NumSharedByte - zeroValidation[SharedByte]
	for i := 0; i < NumSharedByte; i++ {
		name := fmt.Sprintf("AOSP-Mozilla Shared Root CA %03d", i+1)
		var opts []certgen.Option
		if i < 3 {
			opts = append(opts, certgen.WithRSA(1024))
		}
		iss, err := u.newCA(name, "Shared Trust Services", "US", opts...)
		if err != nil {
			return err
		}
		issues := i < sharedZeroStart
		if err := u.addRoot(&Root{Name: name, Class: SharedByte, Issues: issues, Rank: rank(issues), Issued: iss}); err != nil {
			return err
		}
	}

	// Equivalence-shared roots: AOSP carries one instance, Mozilla a
	// re-issued one (same subject and key, new validity).
	for i := 0; i < NumSharedReissued; i++ {
		name := fmt.Sprintf("AOSP-Mozilla Reissued Root CA %02d", i+1)
		iss, err := u.newCA(name, "Reissued Trust Services", "US")
		if err != nil {
			return err
		}
		moz, err := u.gen.Reissue(iss, certgen.WithValidity(
			certgen.Epoch.AddDate(-4, 0, 0), certgen.Epoch.AddDate(15, 0, 0)))
		if err != nil {
			return err
		}
		if err := u.addRoot(&Root{Name: name, Class: SharedReissued, Issues: true, Rank: rank(true), Issued: iss, MozillaInstance: moz}); err != nil {
			return err
		}
	}

	// AOSP-only roots. Class index 0 is the expired Firmaprofesional
	// analogue; the first zeroValidation[AOSPOnly] issue nothing.
	for i := 0; i < NumAOSPOnly; i++ {
		name := fmt.Sprintf("AOSP Exclusive Root CA %02d", i+1)
		var opts []certgen.Option
		if i == 0 {
			name = ExpiredRootName
			opts = append(opts, certgen.Expired())
		}
		iss, err := u.newCA(name, "Android Open Source Project", "US", opts...)
		if err != nil {
			return err
		}
		issues := i >= zeroValidation[AOSPOnly]
		if err := u.addRoot(&Root{Name: name, Class: AOSPOnly, Issues: issues, Rank: rank(issues), Issued: iss}); err != nil {
			return err
		}
	}

	// Mozilla-only, never observed on Android.
	for i := 0; i < NumMozillaOnly; i++ {
		name := fmt.Sprintf("Mozilla Program Root CA %02d", i+1)
		iss, err := u.newCA(name, "Mozilla Trusted Program", "US")
		if err != nil {
			return err
		}
		if err := u.addRoot(&Root{Name: name, Class: MozillaUnobserved, Issues: false, Rank: -1, Issued: iss}); err != nil {
			return err
		}
	}

	// Extras: the Figure 2 catalog plus §5.2 oddballs. Within each class
	// the first zeroValidation[class] entries issue nothing.
	classSeen := make(map[Class]int)
	for _, def := range extraCatalog {
		iss, err := u.newCA(def.name, "Device Vendor Trust", "US")
		if err != nil {
			return err
		}
		idx := classSeen[def.class]
		classSeen[def.class]++
		issues := idx >= zeroValidation[def.class]
		if err := u.addRoot(&Root{Name: def.name, Class: def.class, Issues: issues, Rank: rank(issues), Issued: iss}); err != nil {
			return err
		}
	}

	// iOS7-exclusive roots.
	for i := 0; i < NumIOSExclusive; i++ {
		name := fmt.Sprintf("iOS Trust Services Root CA %02d", i+1)
		iss, err := u.newCA(name, "iOS Trust Services", "US")
		if err != nil {
			return err
		}
		issues := i >= zeroValidation[IOSExclusive]
		if err := u.addRoot(&Root{Name: name, Class: IOSExclusive, Issues: issues, Rank: rank(issues), Issued: iss}); err != nil {
			return err
		}
	}

	// Rooted-device-only roots (Table 5): self-signed, never in traffic.
	for _, name := range rootedCatalog {
		iss, err := u.newCA(name, "Self-Signed", "ZZ")
		if err != nil {
			return err
		}
		if err := u.addRoot(&Root{Name: name, Class: RootedOnly, Issues: false, Rank: -1, Issued: iss}); err != nil {
			return err
		}
	}

	// The interception proxy's signing root (§7).
	iss, err := u.newCA(interceptionName, "Marketing Research Ltd", "GB")
	if err != nil {
		return err
	}
	if err := u.addRoot(&Root{Name: interceptionName, Class: Interception, Issues: false, Rank: -1, Issued: iss}); err != nil {
		return err
	}

	u.buildStores()
	for _, r := range u.roots {
		if r.Issues {
			u.issuing = append(u.issuing, r)
		}
	}
	// issuing is already in rank order because ranks were assigned in
	// construction order.
	return nil
}

// aospOrder returns the 150 AOSP roots in store order: shared-byte,
// shared-reissued, AOSP-only. Version stores are prefixes of this order.
func (u *Universe) aospOrder() []*Root {
	out := make([]*Root, 0, AOSP44Size)
	for _, class := range []Class{SharedByte, SharedReissued, AOSPOnly} {
		for _, r := range u.roots {
			if r.Class == class {
				out = append(out, r)
			}
		}
	}
	return out
}

func (u *Universe) buildStores() {
	order := u.aospOrder()
	sizes := map[string]int{"4.1": AOSP41Size, "4.2": AOSP42Size, "4.3": AOSP43Size, "4.4": AOSP44Size}
	for v, n := range sizes {
		s := rootstore.New("AOSP " + v)
		for _, r := range order[:n] {
			s.Add(r.Issued.Cert)
		}
		u.aosp[v] = s
	}

	moz := rootstore.New("Mozilla")
	ios := rootstore.New("iOS7")
	agg := u.aosp["4.4"].Clone("Aggregated Android")
	var sharedByteIdx, aospOnlyIdx int
	for _, r := range u.roots {
		switch r.Class {
		case SharedByte:
			moz.Add(r.Issued.Cert)
			if sharedByteIdx < iosSharedByteIssuing || !r.Issues {
				// iOS7 carries the popular shared roots and all the
				// zero-validation shared roots.
				ios.Add(r.Issued.Cert)
			}
			sharedByteIdx++
		case SharedReissued:
			moz.Add(r.MozillaInstance.Cert)
		case AOSPOnly:
			if aospOnlyIdx < iosAOSPOnly {
				ios.Add(r.Issued.Cert)
			}
			aospOnlyIdx++
		case MozillaUnobserved:
			moz.Add(r.Issued.Cert)
		case ExtraBoth:
			moz.Add(r.Issued.Cert)
			ios.Add(r.Issued.Cert)
			agg.Add(r.Issued.Cert)
		case ExtraMozillaOnly:
			moz.Add(r.Issued.Cert)
			agg.Add(r.Issued.Cert)
		case ExtraIOSOnly:
			ios.Add(r.Issued.Cert)
			agg.Add(r.Issued.Cert)
		case ExtraAndroidRecorded, ExtraUnrecorded:
			agg.Add(r.Issued.Cert)
		case IOSExclusive:
			ios.Add(r.Issued.Cert)
		}
	}
	u.mozilla = moz
	u.ios7 = ios
	u.aggregated = agg
}

// Seed returns the seed the universe was built from.
func (u *Universe) Seed() int64 { return u.seed }

// Generator exposes the certificate generator so downstream substrates (the
// simulated TLS internet, the MITM proxy) can issue leaves under these roots.
func (u *Universe) Generator() *certgen.Generator { return u.gen }

// AOSP returns the official AOSP store for version ("4.1".."4.4"). It panics
// on an unknown version, which is a programming error.
func (u *Universe) AOSP(version string) *rootstore.Store {
	s, ok := u.aosp[version]
	if !ok {
		panic("cauniverse: unknown AOSP version " + version)
	}
	return s
}

// Mozilla returns Mozilla's root store (153 roots).
func (u *Universe) Mozilla() *rootstore.Store { return u.mozilla }

// IOS7 returns the iOS7 root store (227 roots).
func (u *Universe) IOS7() *rootstore.Store { return u.ios7 }

// AggregatedAndroid returns the union of AOSP 4.4 and every non-AOSP root
// observed on Android devices — the "Aggregated Android root certs" category
// of Table 4 and Figure 3.
func (u *Universe) AggregatedAndroid() *rootstore.Store { return u.aggregated }

// Roots returns every root in construction order.
func (u *Universe) Roots() []*Root {
	out := make([]*Root, len(u.roots))
	copy(out, u.roots)
	return out
}

// Root returns the root with the given name, or nil.
func (u *Universe) Root(name string) *Root { return u.byName[name] }

// Extras returns the non-AOSP additions observed on devices, in catalog
// order.
func (u *Universe) Extras() []*Root {
	var out []*Root
	for _, r := range u.roots {
		if r.Class.IsExtra() {
			out = append(out, r)
		}
	}
	return out
}

// InterceptionRoot returns the §7 proxy signing root.
func (u *Universe) InterceptionRoot() *Root {
	return u.byName[interceptionName]
}

// IssuingRoots returns the roots that issue TLS leaves, ordered by
// popularity rank (rank 0 first).
func (u *Universe) IssuingRoots() []*Root {
	out := make([]*Root, len(u.issuing))
	copy(out, u.issuing)
	return out
}

// ExpiredRoot returns the expired AOSP root analogue.
func (u *Universe) ExpiredRoot() *Root { return u.byName[ExpiredRootName] }
