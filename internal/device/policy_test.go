package device

import (
	"reflect"
	"testing"

	"tangledmass/internal/cauniverse"
)

func newVersionedDevice(t *testing.T, version string, rooted bool) *Device {
	t.Helper()
	u := cauniverse.Default()
	d := New(Profile{
		Model:        "Test Handset",
		Manufacturer: "ACME",
		Version:      version,
	}, u.AOSP(version), nil)
	if rooted {
		d.Root()
	}
	return d
}

func TestInstallCAAPIGate(t *testing.T) {
	crazy := extraCert(t, "CRAZY HOUSE")
	cases := []struct {
		version string
		rooted  bool
		want    Channel
	}{
		{"4.4", true, ChannelRootInstall}, // API 19, rooted: silent system write
		{"4.4", false, ChannelUser},       // no root, no system store
		{"4.1", true, ChannelUser},        // API 16: user store is still silent
		{"4.2", true, ChannelUser},
	}
	for _, tc := range cases {
		d := newVersionedDevice(t, tc.version, tc.rooted)
		got := d.InstallCA(crazy)
		if got != tc.want {
			t.Errorf("InstallCA on %s rooted=%v = %v, want %v", tc.version, tc.rooted, got, tc.want)
		}
		if got == ChannelRootInstall && !d.SystemStore().Contains(crazy) {
			t.Errorf("%s: system-channel install missing from system store", tc.version)
		}
		if got == ChannelUser && !d.UserStore().Contains(crazy) {
			t.Errorf("%s: user-channel install missing from user store", tc.version)
		}
	}
}

func TestChannelStrings(t *testing.T) {
	for ch, want := range map[Channel]string{
		ChannelFirmware:    "firmware",
		ChannelUser:        "user",
		ChannelRootInstall: "system",
	} {
		if ch.String() != want {
			t.Errorf("%d.String() = %q, want %q", ch, ch.String(), want)
		}
	}
}

func TestPoliciesCopyAndOrder(t *testing.T) {
	d := newVersionedDevice(t, "4.4", false)
	if got := d.Policies(); len(got) != 0 {
		t.Fatalf("fresh device has %d policies", len(got))
	}
	in := []ValidationPolicy{
		{App: "stock-browser"},
		{App: "ad-sdk", AcceptAll: true},
		{App: "debug-build", BypassPins: true},
	}
	for _, p := range in {
		d.AddPolicy(p)
	}
	got := d.Policies()
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("Policies() = %+v, want installation order %+v", got, in)
	}
	// The returned slice is a copy: mutating it must not alter the device.
	got[0].AcceptAll = true
	if d.Policies()[0].AcceptAll {
		t.Error("Policies() returned the internal slice, not a copy")
	}
}

func TestAPILevels(t *testing.T) {
	for version, want := range map[string]int{
		"4.4": 19, "4.3": 18, "4.2": 17, "4.1": 16, "4.0": 14, "2.3": 9, "1.5": 10,
	} {
		if got := APILevel(version); got != want {
			t.Errorf("APILevel(%q) = %d, want %d", version, got, want)
		}
	}
}
