package device_test

import (
	"crypto/x509"
	"errors"
	"fmt"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/device"
)

// The §6 mechanics: the Freedom app cannot touch the system store until the
// device is rooted — after which it silently installs its own trust anchor.
func ExampleDevice_Install() {
	u := cauniverse.Default()
	d := device.New(device.Profile{
		Model: "Galaxy SIII", Manufacturer: "SAMSUNG", Version: "4.1",
	}, u.AOSP("4.1"), nil)

	freedom := device.App{
		Name:         "Freedom",
		InstallRoots: []*x509.Certificate{u.Root("CRAZY HOUSE").Issued.Cert},
	}

	err := d.Install(freedom)
	fmt.Println("stock install blocked:", errors.Is(err, device.ErrNeedsRoot))

	d.Root()
	if err := d.Install(freedom); err != nil {
		fmt.Println("unexpected:", err)
		return
	}
	fmt.Println("store grew to:", d.SystemStore().Len())
	fmt.Println("trusts CRAZY HOUSE:", d.SystemStore().Contains(u.Root("CRAZY HOUSE").Issued.Cert))
	// Output:
	// stock install blocked: true
	// store grew to: 140
	// trusts CRAZY HOUSE: true
}
