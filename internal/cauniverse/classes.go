package cauniverse

// Class places a root certificate in the membership taxonomy the paper's
// analyses partition over (Table 4 categories, Figure 2 shape classes).
type Class int

const (
	// SharedByte roots ship byte-identical in AOSP and Mozilla (the 117 of
	// §2: "117 of AOSP 4.4's 150 certificates also exist in Mozilla's root
	// store").
	SharedByte Class = iota
	// SharedReissued roots are in both AOSP and Mozilla under the paper's
	// equivalence (same subject + key) but byte-distinct: Mozilla carries a
	// re-issued instance with a different validity period (§4.2: "in most
	// cases, only the expiration date change"). Together with SharedByte
	// these form the 130-root AOSP∩Mozilla category of Table 4.
	SharedReissued
	// AOSPOnly roots ship in AOSP but in neither Mozilla nor (mostly) iOS7.
	AOSPOnly
	// MozillaUnobserved roots are Mozilla-only and never appeared on any
	// Android device in the dataset.
	MozillaUnobserved
	// ExtraBoth: non-AOSP additions observed on devices that are present in
	// both Mozilla's and iOS7's stores (Figure 2 class "Mozilla, and iOS7",
	// 6.7% of displayed certs).
	ExtraBoth
	// ExtraMozillaOnly: non-AOSP additions present in Mozilla's store only.
	// With ExtraBoth these form Table 4's "Non AOSP root certs found on
	// Mozilla's" (16 roots).
	ExtraMozillaOnly
	// ExtraIOSOnly: non-AOSP additions present in iOS7's store only
	// (Figure 2 class "iOS7", 16.2%) — e.g. the DoD CLASS 3 Root CA.
	ExtraIOSOnly
	// ExtraAndroidRecorded: non-AOSP additions in no other store but whose
	// certificate the Notary has on record (Figure 2 class "Only Android",
	// 37.1%).
	ExtraAndroidRecorded
	// ExtraUnrecorded: non-AOSP additions the Notary has never seen in any
	// traffic (Figure 2 class "Not recorded by ICSI Notary", 40.0%) — e.g.
	// FOTA/SUPL and code-signing roots used for offline operations, and the
	// §5.2 oddballs (operator APIs, government CAs).
	ExtraUnrecorded
	// IOSExclusive roots ship only in iOS7's store.
	IOSExclusive
	// RootedOnly roots appear exclusively on rooted handsets (Table 5):
	// installed by store-tampering apps or users, never shipped in firmware.
	RootedOnly
	// Interception is the marketing-proxy signing root (§7, the Reality
	// Mine analogue). It ships in no store; it appears only in intercepted
	// TLS chains.
	Interception
)

var classNames = map[Class]string{
	SharedByte:           "shared-byte",
	SharedReissued:       "shared-reissued",
	AOSPOnly:             "aosp-only",
	MozillaUnobserved:    "mozilla-unobserved",
	ExtraBoth:            "extra-mozilla-ios7",
	ExtraMozillaOnly:     "extra-mozilla-only",
	ExtraIOSOnly:         "extra-ios7-only",
	ExtraAndroidRecorded: "extra-android-recorded",
	ExtraUnrecorded:      "extra-unrecorded",
	IOSExclusive:         "ios7-exclusive",
	RootedOnly:           "rooted-only",
	Interception:         "interception",
}

// String returns a stable kebab-case label.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "unknown"
}

// IsExtra reports whether the class is a non-AOSP addition observed on
// Android devices in the wild.
func (c Class) IsExtra() bool {
	switch c {
	case ExtraBoth, ExtraMozillaOnly, ExtraIOSOnly, ExtraAndroidRecorded, ExtraUnrecorded:
		return true
	}
	return false
}
