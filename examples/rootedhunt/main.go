// Rootedhunt: reproduce §6. Simulate rooting a handset, install the Freedom
// app (which silently adds the "CRAZY HOUSE" root to the system store), then
// run the rooted-exclusive detection over a generated fleet to recover
// Table 5.
//
//	go run ./examples/rootedhunt
package main

import (
	"crypto/x509"
	"errors"
	"fmt"
	"log"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/device"
	"tangledmass/internal/population"
	"tangledmass/internal/report"
)

func main() {
	log.SetFlags(0)
	u := cauniverse.Default()

	// Part 1: the mechanics on a single handset.
	dev := device.New(device.Profile{
		Model: "Galaxy SIII", Manufacturer: "SAMSUNG", Operator: "SPRINT", Country: "US", Version: "4.1",
	}, u.AOSP("4.1"), nil)

	freedom := device.App{
		Name:         "Freedom",
		InstallRoots: []*x509.Certificate{u.Root("CRAZY HOUSE").Issued.Cert},
	}

	fmt.Println("install on a stock device:")
	if err := dev.Install(freedom); errors.Is(err, device.ErrNeedsRoot) {
		fmt.Printf("  blocked: %v\n", err)
	}

	fmt.Println("root the device and retry:")
	dev.Root()
	if err := dev.Install(freedom); err != nil {
		log.Fatal(err)
	}
	crazy := u.Root("CRAZY HOUSE").Issued.Cert
	fmt.Printf("  system store now trusts %q: %v (no user interaction, no warning)\n",
		crazy.Subject.CommonName, dev.SystemStore().Contains(crazy))

	// Part 2: fleet-scale detection (Table 5). Roots found on rooted
	// handsets and never on non-rooted ones are the §6 signal.
	fmt.Println("\ngenerating fleet and hunting rooted-exclusive roots...")
	pop, err := population.Generate(population.Config{Seed: 1, SessionScale: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	rows := analysis.Table5(pop)
	fmt.Print(report.Table5(rows))

	h := analysis.ComputeHeadlines(pop)
	fmt.Printf("\n%.0f%% of sessions ran on rooted handsets; %.1f%% of those carried rooted-only roots\n",
		h.RootedFraction*100, h.RootedExclusiveOfRoots*100)
}
