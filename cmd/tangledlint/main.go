// Command tangledlint runs the repo-aware static-analysis suite over the
// module. It is one of the three correctness gates verify.sh chains (with
// go vet and go test -race): the paper's identity, determinism, locking,
// and error-handling invariants are enforced here, mechanically, on every
// build.
//
// Usage:
//
//	tangledlint [flags] [./... | <module-dir>]
//
// With no argument or "./...", the module containing the current directory
// is analyzed. Findings print as "file:line: [rule] message" with paths
// relative to the module root; the exit code is 1 when there are findings,
// 2 on usage or load errors, 0 when clean.
//
// Flags:
//
//	-format text|json   output format; json emits one JSON object per
//	                    finding, one per line, stable across machines and
//	                    worker counts (CI problem matchers key off it)
//	-workers N          lint worker count (default GOMAXPROCS); output is
//	                    byte-identical at any value
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"tangledmass/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tangledlint: ")
	findings, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// run executes the driver and returns the number of findings printed.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("tangledlint", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	format := fs.String("format", "text", "output format: text or json")
	workers := fs.Int("workers", 0, "lint worker count (<1 means GOMAXPROCS)")
	usage := fmt.Errorf("usage: tangledlint [-format text|json] [-workers N] [./... | <module-dir>]")
	if err := fs.Parse(args); err != nil {
		return 0, usage
	}
	if *format != "text" && *format != "json" {
		return 0, usage
	}

	root := "."
	switch fs.NArg() {
	case 0:
		// module at the current directory
	case 1:
		if fs.Arg(0) != "./..." {
			root = fs.Arg(0)
		}
	default:
		return 0, usage
	}
	root, err := findModuleRoot(root)
	if err != nil {
		return 0, err
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		return 0, err
	}
	findings := lint.Run(m, lint.Analyzers(), lint.WithWorkers(*workers))

	w := bufio.NewWriter(out)
	for _, f := range findings {
		var err error
		if *format == "json" {
			err = writeJSON(w, f)
		} else {
			_, err = fmt.Fprintln(w, f.String())
		}
		if err != nil {
			return 0, fmt.Errorf("writing findings: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("writing findings: %w", err)
	}
	return len(findings), nil
}

// jsonFinding is the machine-readable rendering of one finding. Field
// order is fixed by the struct, so the bytes are stable for a given
// finding list regardless of worker count or platform.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// writeJSON emits one finding as a single JSON line.
func writeJSON(w io.Writer, f lint.Finding) error {
	data, err := json.Marshal(jsonFinding{
		File: f.Pos.Filename,
		Line: f.Pos.Line,
		Col:  f.Pos.Column,
		Rule: f.Rule,
		Msg:  f.Msg,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// findModuleRoot walks up from dir to the nearest directory with a go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod at or above %s", dir)
		}
		d = parent
	}
}
