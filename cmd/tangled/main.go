// Command tangled is the root-store audit CLI: inspect, diff, export, and
// audit Android-format root certificate stores against the reference
// universes (AOSP 4.1–4.4, Mozilla, iOS7).
//
// Usage:
//
//	tangled stores
//	tangled diff <store-a> <store-b>
//	tangled export <store> <dir>
//	tangled audit [-version 4.4] <cacerts-dir>
//	tangled classify <cert-name>
//	tangled campaign [-scale 0.02] [-seed 1] [-frozen-clock]
//
// A <store> argument is either a built-in name (aosp4.1, aosp4.2, aosp4.3,
// aosp4.4, mozilla, ios7, aggregated) or a path to an Android cacerts
// directory (/system/etc/security/cacerts layout).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certid"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/report"
	"tangledmass/internal/rootstore"
)

// errUsage signals a command-line mistake; main prints usage and exits 2.
var errUsage = errors.New("usage error")

func main() {
	log.SetFlags(0)
	log.SetPrefix("tangled: ")
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, errUsage) {
			usage()
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return errUsage
	}
	switch args[0] {
	case "stores":
		return cmdStores()
	case "diff":
		return cmdDiff(args[1:])
	case "export":
		return cmdExport(args[1:])
	case "audit":
		return cmdAudit(args[1:])
	case "classify":
		return cmdClassify(args[1:])
	case "minimize":
		return cmdMinimize(args[1:])
	case "surface":
		return cmdSurface(args[1:])
	case "fleet":
		return cmdFleet(args[1:])
	case "dataset":
		return cmdDataset(args[1:])
	case "show":
		return cmdShow(args[1:])
	case "campaign":
		return cmdCampaign(args[1:])
	case "fsck":
		return cmdFsck(args[1:])
	case "loadgen":
		return cmdLoadgen(args[1:])
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		return errUsage
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tangled stores                          list reference stores (Table 1)
  tangled diff <store-a> <store-b>        three-way diff under equivalence
  tangled export <store> <dir>            write a store as an Android cacerts dir
  tangled audit [-version V] <cacerts-dir>  audit a device store against AOSP
  tangled classify <cert-name>            presence class of a catalog root
  tangled minimize [-threshold N] [-sweep] <store>  propose §8 store pruning
  tangled surface <store>                 TLS attack surface under trust policies
  tangled fleet [-scale F] [-export DIR] [-load DIR]  fleet analyses
  tangled dataset convert [-format F] <src> <dst>  re-encode a dataset (jsonl|columnar)
  tangled dataset inspect <dir>           summarize a dataset directory
  tangled dataset verify <dir>            integrity-check a dataset (checksums, references)
  tangled show [-pem] <cert-name>         openssl-style certificate dump
  tangled campaign [-scale F] [-seed N] [-frozen-clock]  run the pipeline, dump the obs snapshot as JSON
  tangled fsck <data-dir>                 verify a notaryd data directory offline
  tangled loadgen [-shards N] [-sessions N] [-p99-ms MS]  drive load at a (sharded) notary, gate on p99`)
}

// resolveStore maps a name or cacerts path to a store.
func resolveStore(arg string) (*rootstore.Store, error) {
	u := cauniverse.Default()
	switch strings.ToLower(arg) {
	case "aosp4.1", "aosp-4.1":
		return u.AOSP("4.1"), nil
	case "aosp4.2", "aosp-4.2":
		return u.AOSP("4.2"), nil
	case "aosp4.3", "aosp-4.3":
		return u.AOSP("4.3"), nil
	case "aosp4.4", "aosp-4.4":
		return u.AOSP("4.4"), nil
	case "mozilla":
		return u.Mozilla(), nil
	case "ios7":
		return u.IOS7(), nil
	case "aggregated":
		return u.AggregatedAndroid(), nil
	}
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		return rootstore.ReadCacertsDir(arg)
	}
	return nil, fmt.Errorf("unknown store %q (not a built-in name or cacerts directory)", arg)
}

func cmdStores() error {
	fmt.Print(report.Table1(analysis.Table1(cauniverse.Default())))
	return nil
}

func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff needs exactly two stores")
	}
	a, err := resolveStore(args[0])
	if err != nil {
		return err
	}
	b, err := resolveStore(args[1])
	if err != nil {
		return err
	}
	d := rootstore.Diff(a, b)
	fmt.Printf("%s: %d roots | %s: %d roots | shared (equivalent): %d | byte-identical: %d\n",
		a.Name(), a.Len(), b.Name(), b.Len(), len(d.Both), rootstore.ByteIntersectCount(a, b))
	if len(d.OnlyA) > 0 {
		fmt.Printf("\nonly in %s (%d):\n", a.Name(), len(d.OnlyA))
		for _, c := range d.OnlyA {
			fmt.Printf("  %s  %s\n", certid.SubjectHashString(c), c.Subject.CommonName)
		}
	}
	if len(d.OnlyB) > 0 {
		fmt.Printf("\nonly in %s (%d):\n", b.Name(), len(d.OnlyB))
		for _, c := range d.OnlyB {
			fmt.Printf("  %s  %s\n", certid.SubjectHashString(c), c.Subject.CommonName)
		}
	}
	return nil
}

func cmdExport(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("export needs <store> <dir>")
	}
	s, err := resolveStore(args[0])
	if err != nil {
		return err
	}
	if err := rootstore.WriteCacertsDir(args[1], s); err != nil {
		return err
	}
	fmt.Printf("wrote %d certificates to %s\n", s.Len(), args[1])
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	version := fs.String("version", "4.4", "AOSP version to audit against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("audit needs one cacerts directory")
	}
	dir := fs.Arg(0)
	deviceStore, err := rootstore.ReadCacertsDir(dir)
	if err != nil {
		return err
	}
	u := cauniverse.Default()
	aosp := u.AOSP(*version)
	d := rootstore.Diff(deviceStore, aosp)
	fmt.Printf("device store %s: %d roots (AOSP %s reference: %d)\n",
		dir, deviceStore.Len(), *version, aosp.Len())
	fmt.Printf("  AOSP roots present: %d\n", len(d.Both))
	fmt.Printf("  AOSP roots missing: %d\n", len(d.OnlyB))
	fmt.Printf("  additional roots:   %d\n", len(d.OnlyA))
	if len(d.OnlyB) > 0 {
		fmt.Println("\nmissing AOSP roots:")
		for _, c := range d.OnlyB {
			fmt.Printf("  %s  %s\n", certid.SubjectHashString(c), c.Subject.CommonName)
		}
	}
	if len(d.OnlyA) > 0 {
		fmt.Println("\nadditional roots (presence class):")
		for _, c := range d.OnlyA {
			class := "unknown to reference universe"
			inMoz := u.Mozilla().Contains(c)
			inIOS := u.IOS7().Contains(c)
			switch {
			case inMoz && inIOS:
				class = "in Mozilla and iOS7"
			case inMoz:
				class = "in Mozilla only"
			case inIOS:
				class = "in iOS7 only"
			}
			fmt.Printf("  %s  %-50s %s\n", certid.SubjectHashString(c), c.Subject.CommonName, class)
		}
	}
	return nil
}

// cmdFsck verifies a notaryd data directory offline, shard by shard:
// snapshot checksums, journal frame CRCs, and the one-live-generation
// layout. Exit status 1 when any check fails, so scripts can gate on it.
func cmdFsck(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("fsck needs one data directory")
	}
	return notaryshard.FsckDir(faultfs.Disk, args[0], os.Stdout)
}

func cmdClassify(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("classify needs one certificate name")
	}
	u := cauniverse.Default()
	r := u.Root(args[0])
	if r == nil {
		return fmt.Errorf("no catalog root named %q", args[0])
	}
	fmt.Printf("name:      %s\n", r.Name)
	fmt.Printf("class:     %s\n", r.Class)
	fmt.Printf("hash:      %s\n", certid.SubjectHashString(r.Issued.Cert))
	fmt.Printf("subject:   %s\n", certid.SubjectString(r.Issued.Cert))
	fmt.Printf("issues TLS leaves: %v (popularity rank %d)\n", r.Issues, r.Rank)
	fmt.Printf("in AOSP 4.4:  %v\n", u.AOSP("4.4").Contains(r.Issued.Cert))
	fmt.Printf("in Mozilla:   %v\n", u.Mozilla().Contains(r.Issued.Cert))
	fmt.Printf("in iOS7:      %v\n", u.IOS7().Contains(r.Issued.Cert))
	return nil
}
