// Command paperfigs regenerates every table and figure of "A Tangled Mass:
// The Android Root Certificate Stores" (CoNEXT 2014) from the synthetic
// substrates, printing each in the paper's structure.
//
// Usage:
//
//	paperfigs [-seed N] [-scale F] [-leaves N] [-only table1,figure3,...]
//	          [-json artifacts.json] [-csvdir DIR]
//
// -scale scales the Netalyzr session quota (1.0 = the paper's 15,970
// sessions); -leaves sizes the Notary's simulated TLS internet; -json and
// -csvdir additionally emit machine-readable artifacts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/device"
	"tangledmass/internal/mitm"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/report"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	var (
		seed   = flag.Int64("seed", 1, "seed for all generators")
		scale  = flag.Float64("scale", 1.0, "session-quota scale (1.0 = 15,970 sessions)")
		leaves = flag.Int("leaves", 20000, "number of simulated TLS internet certificates")
		only   = flag.String("only", "", "comma-separated subset: table1..table6,figure1..figure3,headlines,attribution")
		jsonTo = flag.String("json", "", "also write every computed artifact as JSON to this file")
		csvDir = flag.String("csvdir", "", "also write plot-ready CSV files for the figures into this directory")
	)
	flag.Parse()
	if err := run(*seed, *scale, *leaves, *only, *jsonTo, *csvDir); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64, scale float64, leaves int, only, jsonTo, csvDir string) error {
	artifacts := map[string]any{}
	want := func(name string) bool {
		if only == "" {
			return true
		}
		for _, part := range strings.Split(only, ",") {
			if strings.TrimSpace(part) == name {
				return true
			}
		}
		return false
	}

	u, err := cauniverse.New(seed)
	if err != nil {
		return err
	}

	section := func(title string) {
		fmt.Printf("\n===== %s =====\n", title)
	}

	if want("table1") {
		section("Table 1: number of certificates in different root stores")
		rows := analysis.Table1(u)
		artifacts["table1"] = rows
		fmt.Print(report.Table1(rows))
	}

	var pop *population.Population
	needPop := want("table2") || want("table5") || want("figure1") || want("figure2") ||
		want("headlines") || want("attribution")
	if needPop {
		fmt.Fprintln(os.Stderr, "generating device population...")
		pop, err = population.Generate(population.Config{Seed: seed, Universe: u, SessionScale: scale})
		if err != nil {
			return err
		}
	}

	if want("table2") {
		section("Table 2: top 5 mobile devices and manufacturers")
		devices, manufacturers := analysis.Table2(pop, 5)
		artifacts["table2"] = map[string]any{"devices": devices, "manufacturers": manufacturers}
		fmt.Print(report.Table2(devices, manufacturers))
	}

	if want("headlines") {
		section("Section 5/6 headline numbers")
		h := analysis.ComputeHeadlines(pop)
		artifacts["headlines"] = h
		fmt.Print(report.Headlines(h))
		ov := analysis.MozillaOverlap(u)
		artifacts["mozilla_overlap"] = ov
		fmt.Printf("AOSP 4.4 ∩ Mozilla: %d equivalent roots, %d byte-identical\n",
			ov.Equivalent, ov.ByteIdentical)
	}

	var ndb *notary.Notary
	needNotary := want("table3") || want("table4") || want("figure2") || want("figure3")
	if needNotary {
		fmt.Fprintln(os.Stderr, "simulating TLS internet and feeding the Notary...")
		world, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, Universe: u, NumLeaves: leaves})
		if err != nil {
			return err
		}
		ndb = notary.New(certgen.Epoch)
		tlsnet.Feed(world, ndb)
		fmt.Fprintln(os.Stderr, ndb.String())
	}

	if want("figure1") {
		section("Figure 1: AOSP certs vs. additional certs per manufacturer/version")
		pts := analysis.Figure1(pop)
		artifacts["figure1"] = pts
		fmt.Print(report.Figure1(pts))
	}

	if want("figure2") {
		section("Figure 2: vendor/operator certificate attribution (top 12 per group)")
		cells := analysis.Figure2(pop, ndb, 10)
		artifacts["figure2"] = cells
		shares := analysis.ClassShares(cells)
		artifacts["figure2_class_shares"] = shares
		fmt.Print(report.Figure2(cells, 12))
		fmt.Println("\nPresence-class shares over displayed certificates:")
		fmt.Print(report.ClassShares(shares))
	}

	if want("table3") {
		section("Table 3: certificates validated by Mozilla and AOSP root stores")
		rows := analysis.Table3(ndb, u)
		artifacts["table3"] = rows
		fmt.Print(report.Table3(rows))
	}

	var cats []analysis.CategoryValidation
	if want("table4") || want("figure3") {
		cats = analysis.ValidateCategories(ndb, analysis.Figure3Categories(u))
	}
	if want("table4") {
		section("Table 4: root certificates per category and zero-validation share")
		artifacts["table4"] = cats
		fmt.Print(report.Table4(cats))
	}
	if want("figure3") {
		section("Figure 3: ECDF of Notary certificates validated per root certificate")
		artifacts["figure3"] = cats
		fmt.Print(report.Figure3(cats, 12))
	}

	if want("table5") {
		section("Table 5: CAs found exclusively on rooted devices")
		rows := analysis.Table5(pop)
		artifacts["table5"] = rows
		fmt.Print(report.Table5(rows))
	}

	if want("attribution") {
		section("Interception attribution: store tampering vs. app misvalidation")
		ta := analysis.ComputeTrustAttribution(pop)
		artifacts["trust_attribution"] = ta
		fmt.Print(report.TrustAttributionTable(ta))
	}

	if want("table6") {
		section("Table 6: domains intercepted and whitelisted by the marketing proxy")
		intercepted, clean, err := runInterception(u)
		if err != nil {
			return err
		}
		artifacts["table6"] = map[string]any{"intercepted": intercepted, "whitelisted": clean}
		fmt.Print(report.Table6(intercepted, clean))
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", csvDir, err)
		}
		writeCSV := func(name string, fn func(f *os.File) error) error {
			f, err := os.Create(filepath.Join(csvDir, name))
			if err != nil {
				return err
			}
			defer f.Close()
			return fn(f)
		}
		if pts, ok := artifacts["figure1"].([]analysis.ScatterPoint); ok {
			if err := writeCSV("figure1.csv", func(f *os.File) error { return report.Figure1CSV(f, pts) }); err != nil {
				return err
			}
		}
		if cells, ok := artifacts["figure2"].([]analysis.AttributionCell); ok {
			if err := writeCSV("figure2.csv", func(f *os.File) error { return report.Figure2CSV(f, cells) }); err != nil {
				return err
			}
		}
		if cats != nil {
			if err := writeCSV("figure3.csv", func(f *os.File) error { return report.Figure3CSV(f, cats) }); err != nil {
				return err
			}
			if err := writeCSV("table4.csv", func(f *os.File) error { return report.Table4CSV(f, cats) }); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "CSV files written to %s\n", csvDir)
	}

	if jsonTo != "" {
		data, err := json.MarshalIndent(artifacts, "", "  ")
		if err != nil {
			return fmt.Errorf("marshaling artifacts: %w", err)
		}
		if err := os.WriteFile(jsonTo, data, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", jsonTo, err)
		}
		fmt.Fprintf(os.Stderr, "artifacts written to %s\n", jsonTo)
	}
	return nil
}

// runInterception reproduces §7 live: origin servers on loopback, the
// interception proxy in front, one Netalyzr session through it, and the
// detector splitting the probes.
func runInterception(u *cauniverse.Universe) (intercepted, clean []mitm.Finding, err error) {
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: u.Seed(), Universe: u, NumLeaves: 10})
	if err != nil {
		return nil, nil, err
	}
	sites, err := tlsnet.NewSites(world)
	if err != nil {
		return nil, nil, err
	}
	srv, err := tlsnet.ServeSites(sites)
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()

	proxy, err := mitm.NewProxy(u.InterceptionRoot().Issued, u.Generator(),
		tlsnet.DirectDialer{Server: srv}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
	if err != nil {
		return nil, nil, err
	}

	dev := device.New(device.Profile{
		Model: "Nexus 7", Manufacturer: "ASUS", Operator: "WiFi", Country: "US", Version: "4.4",
	}, u.AOSP("4.4"), nil)
	client, err := netalyzr.New(dev, proxy, netalyzr.WithValidationTime(certgen.Epoch))
	if err != nil {
		return nil, nil, err
	}
	rep, err := client.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	det := &mitm.Detector{
		Reference: rootstore.Union("official stores", u.AOSP("4.4"), u.Mozilla(), u.IOS7()),
		At:        certgen.Epoch,
	}
	intercepted, clean = det.InspectReport(rep)
	return intercepted, clean, nil
}
