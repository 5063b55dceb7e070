package main

import (
	"context"
	"flag"
	"fmt"

	"tangledmass/internal/dataset"
)

// datasetFormat parses the -format flag of a command that writes a dataset.
// Auto is refused: a writer given it writes JSONL, so the command would
// report a format it did not choose.
func datasetFormat(s string) (dataset.Format, error) {
	switch s {
	case "jsonl":
		return dataset.JSONL, nil
	case "columnar":
		return dataset.Columnar, nil
	}
	return dataset.Auto, fmt.Errorf("unknown dataset format %q (want jsonl or columnar)", s)
}

// cmdDataset converts, summarizes and integrity-checks dataset directories.
func cmdDataset(args []string) error {
	if len(args) < 1 {
		return errUsage
	}
	ctx := context.Background()
	switch args[0] {
	case "convert":
		fs := flag.NewFlagSet("dataset convert", flag.ContinueOnError)
		format := fs.String("format", "columnar", "target format (jsonl|columnar)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return fmt.Errorf("dataset convert needs <src-dir> <dst-dir>")
		}
		f, err := datasetFormat(*format)
		if err != nil {
			return err
		}
		pop, err := dataset.NewReader(fs.Arg(0)).Read(ctx)
		if err != nil {
			return err
		}
		if err := dataset.NewWriter(fs.Arg(1), dataset.WithFormat(f)).Write(ctx, pop); err != nil {
			return err
		}
		fmt.Printf("converted %s -> %s (%s, %d handsets, %d sessions)\n",
			fs.Arg(0), fs.Arg(1), f, len(pop.Handsets), len(pop.Sessions))
		return nil
	case "inspect", "verify":
		if len(args) != 2 {
			return fmt.Errorf("dataset %s needs one dataset directory", args[0])
		}
		r := dataset.NewReader(args[1])
		var (
			info *dataset.Info
			err  error
		)
		if args[0] == "verify" {
			info, err = r.Verify(ctx)
		} else {
			info, err = r.Inspect(ctx)
		}
		if err != nil {
			return err
		}
		fmt.Printf("format:   %s\n", info.Format)
		fmt.Printf("handsets: %d\n", info.Handsets)
		fmt.Printf("certs:    %d\n", info.Certs)
		fmt.Printf("sessions: %d\n", info.Sessions)
		fmt.Printf("bytes:    %d\n", info.Bytes)
		for _, s := range info.Sections {
			fmt.Printf("  section %-10s offset %8d  length %8d  crc32c %08x\n",
				s.Name, s.Offset, s.Length, s.CRC32C)
		}
		if args[0] == "verify" {
			fmt.Println("ok: all checksums and references verified")
		}
		return nil
	default:
		return errUsage
	}
}
