package main

import (
	"context"
	"flag"
	"fmt"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/certview"
	"tangledmass/internal/dataset"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/recommend"
	"tangledmass/internal/report"
	"tangledmass/internal/tlsnet"
	"tangledmass/internal/trustlevel"
)

// buildNotary simulates the TLS internet and feeds a Notary, the substrate
// for minimize.
func buildNotary(seed int64, leaves int) (*notary.Notary, error) {
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: seed, NumLeaves: leaves})
	if err != nil {
		return nil, err
	}
	n := notary.New(certgen.Epoch)
	tlsnet.Feed(world, n)
	return n, nil
}

// cmdMinimize proposes a §8-style store pruning with measured breakage.
func cmdMinimize(args []string) error {
	fs := flag.NewFlagSet("minimize", flag.ContinueOnError)
	leaves := fs.Int("leaves", 10000, "simulated TLS internet size")
	seed := fs.Int64("seed", 1, "seed")
	threshold := fs.Int("threshold", 1, "minimum validations a root needs to be kept")
	sweep := fs.Bool("sweep", false, "run a threshold sweep instead of one proposal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("minimize needs one store")
	}
	store, err := resolveStore(fs.Arg(0))
	if err != nil {
		return err
	}
	n, err := buildNotary(*seed, *leaves)
	if err != nil {
		return err
	}
	if *sweep {
		fmt.Printf("threshold sweep for %s over %s:\n", store.Name(), n)
		fmt.Printf("%-10s %-10s %-12s %-10s %-10s\n", "threshold", "removed", "removed%", "broken", "broken%")
		for _, pt := range recommend.Sweep(n, store, []int{1, 2, 5, 10, 25, 50, 100}) {
			fmt.Printf("%-10d %-10d %-12.1f %-10d %-10.2f\n",
				pt.Threshold, pt.Removed, pt.RemovedFrac*100, pt.Broken, pt.BrokenFrac*100)
		}
		return nil
	}
	m := recommend.Minimize(n, store, *threshold)
	br := recommend.EvaluateBreakage(n, m)
	fmt.Println(m)
	fmt.Printf("breakage: %d of %d validated certificates lost (%.2f%%)\n",
		br.Broken, br.Before, br.BrokenFraction()*100)
	fmt.Println("\nroots proposed for removal (validations):")
	for _, u := range m.Remove {
		fmt.Printf("  %6d  %s\n", u.Validations, u.Identity.Subject)
	}
	return nil
}

// cmdSurface compares the TLS attack surface under Android's all-usage
// policy vs a Mozilla-style per-usage policy (§8).
func cmdSurface(args []string) error {
	fs := flag.NewFlagSet("surface", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("surface needs one store")
	}
	store, err := resolveStore(fs.Arg(0))
	if err != nil {
		return err
	}
	u := cauniverse.Default()
	android := trustlevel.Surface("android (all-usage)", trustlevel.AndroidPolicy(store))
	mozilla := trustlevel.Surface("mozilla-style (per-usage)", trustlevel.MozillaStylePolicy(u, store))
	fmt.Printf("store %s: %d roots\n", store.Name(), store.Len())
	for _, r := range []trustlevel.SurfaceReport{android, mozilla} {
		fmt.Printf("  %-28s %3d roots can mint TLS server certs (%.0f%% excluded)\n",
			r.PolicyName, r.ServerAuthRoots, r.RemovedFraction()*100)
	}
	return nil
}

// cmdFleet generates (or loads) a fleet and prints the §5/§6 analyses.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.25, "session-quota scale")
	seed := fs.Int64("seed", 1, "seed")
	export := fs.String("export", "", "write the generated fleet as a dataset directory")
	format := fs.String("format", "jsonl", "dataset format for -export (jsonl|columnar)")
	load := fs.String("load", "", "load a fleet from a dataset directory instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := datasetFormat(*format)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var pop *population.Population
	if *load != "" {
		pop, err = dataset.NewReader(*load).Read(ctx)
	} else {
		pop, err = population.Generate(population.Config{Seed: *seed, SessionScale: *scale})
	}
	if err != nil {
		return err
	}
	fmt.Print(report.Headlines(analysis.ComputeHeadlines(pop)))
	devices, manufacturers := analysis.Table2(pop, 5)
	fmt.Println()
	fmt.Print(report.Table2(devices, manufacturers))
	fmt.Println()
	fmt.Print(report.Table5(analysis.Table5(pop)))
	if *export != "" {
		if err := dataset.NewWriter(*export, dataset.WithFormat(f)).Write(ctx, pop); err != nil {
			return err
		}
		fmt.Printf("\ndataset written to %s\n", *export)
	}
	return nil
}

// cmdShow dumps one catalog certificate in openssl-style text.
func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	pem := fs.Bool("pem", false, "append the PEM encoding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show needs one certificate name")
	}
	u := cauniverse.Default()
	r := u.Root(fs.Arg(0))
	if r == nil {
		return fmt.Errorf("no catalog root named %q", fs.Arg(0))
	}
	fmt.Print(certview.Render(r.Issued.Cert, certview.Options{Now: certgen.Epoch, ShowPEM: *pem}))
	return nil
}
