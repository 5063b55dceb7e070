// Fleetaudit: generate a Netalyzr-style device fleet, then run the paper's
// §5 analyses on it — the extended-store scatter (Figure 1), the headline
// numbers, and the vendor/operator certificate attribution (Figure 2).
//
//	go run ./examples/fleetaudit [-scale 0.25]
package main

import (
	"flag"
	"fmt"
	"log"

	"tangledmass/internal/analysis"
	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/report"
	"tangledmass/internal/tlsnet"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.25, "session-quota scale (1.0 = the paper's 15,970 sessions)")
	flag.Parse()

	pop, err := population.Generate(population.Config{Seed: 1, SessionScale: *scale})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Headline numbers (§5/§6):")
	fmt.Print(report.Headlines(analysis.ComputeHeadlines(pop)))

	devices, manufacturers := analysis.Table2(pop, 5)
	fmt.Println("\nTop devices and manufacturers (Table 2):")
	fmt.Print(report.Table2(devices, manufacturers))

	// Figure 1: where sessions sit in the (AOSP certs, extra certs) plane.
	pts := analysis.Figure1(pop)
	fmt.Printf("\nFigure 1 scatter: %d distinct coordinates; a sample:\n", len(pts))
	shown := 0
	for _, p := range pts {
		if p.ExtraCerts > 40 && shown < 8 {
			fmt.Printf("  %-10s %s: %d AOSP + %d extra certs (%d sessions)\n",
				p.Manufacturer, p.Version, p.AOSPCerts, p.ExtraCerts, p.Sessions)
			shown++
		}
	}

	// Figure 2 needs the Notary for the presence classes; a small simulated
	// internet suffices for classification.
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: 1, Universe: pop.Universe, NumLeaves: 2000})
	if err != nil {
		log.Fatal(err)
	}
	ndb := notary.New(certgen.Epoch)
	tlsnet.Feed(world, ndb)

	cells := analysis.Figure2(pop, ndb, 10)
	fmt.Printf("\nFigure 2 attribution matrix: %d cells; class shares over displayed certs:\n", len(cells))
	fmt.Print(report.ClassShares(analysis.ClassShares(cells)))
}
