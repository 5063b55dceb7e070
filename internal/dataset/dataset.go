// Package dataset serializes a device population to disk and back — the
// interchange layer a real measurement pipeline needs between collection
// and analysis. Two on-disk formats are supported:
//
//   - JSONL (the v1 interchange format): certs.pem holds every distinct
//     certificate as a PEM block; handsets.jsonl holds one JSON object per
//     handset referencing certificates by SHA-256 fingerprint. Text-diffable
//     and toolable, but every load re-decodes hex fingerprints per handset.
//   - Columnar (v2): a single sectioned, seekable binary file
//     (handsets.col) with a magic header, a deduplicated DER table exactly
//     like the notary's snapshot v3, and per-column sections (IDs,
//     profiles, flags, session counts, store membership as sorted DER-table
//     indices), each CRC32C-checksummed so readers can seek straight to a
//     column and loaders reject truncation and bit-flips.
//
// Construct a Writer or Reader with functional options:
//
//	w := dataset.NewWriter(dir, dataset.WithFormat(dataset.Columnar))
//	err := w.Write(ctx, pop)
//	p, err := dataset.NewReader(dir).Read(ctx)   // format auto-detected
//
// Certificates resolve through a content-addressed corpus (the process
// shared corpus by default): a load interns the deduplicated certificate
// table once and reconstructs every store by Ref handle, so nothing is
// parsed or fingerprinted twice. Sessions are derived from the per-handset
// session counts on load, exactly as the generator derives them, so a
// written-and-reloaded dataset yields identical analysis results.
package dataset

import (
	"context"
	"fmt"
	"os"
	"slices"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/corpus"
	"tangledmass/internal/population"
)

const (
	certsFile    = "certs.pem"
	handsetsFile = "handsets.jsonl"
	columnarFile = "handsets.col"
)

// maxHandsetSessions bounds one handset's session count on read: Read
// materializes every session, so the count sizes an allocation. Generated
// fleets stay under 10 (8 at paper scale).
const maxHandsetSessions = 1 << 10

// checkHandset rejects a handset population.Assemble cannot take. Both
// formats' decoders call it on every handset, for Read and Verify alike.
func checkHandset(id int, version string, sessions int) error {
	if !slices.Contains(cauniverse.AOSPVersions(), version) {
		return fmt.Errorf("dataset: handset %d runs Android %q, which has no AOSP store", id, version)
	}
	if sessions < 0 || sessions > maxHandsetSessions {
		return fmt.Errorf("dataset: handset %d claims %d sessions", id, sessions)
	}
	return nil
}

// checkSessionTotal refuses a fleet with more sessions than the file that
// declares the counts has bytes; generated fleets spend over 50 a session.
func checkSessionTotal(total int, size int64) error {
	if total < 0 || int64(total) > size {
		return fmt.Errorf("dataset: %d sessions declared in a %d-byte file", total, size)
	}
	return nil
}

// Format selects a dataset's on-disk layout.
type Format int

const (
	// Auto means: detect on read (a directory holding handsets.col is
	// columnar, else JSONL); write the JSONL interchange format.
	Auto Format = iota
	// JSONL is the v1 text format (certs.pem + handsets.jsonl).
	JSONL
	// Columnar is the v2 sectioned binary format (handsets.col).
	Columnar
)

// String names the format for reports and CLI output.
func (f Format) String() string {
	switch f {
	case JSONL:
		return "jsonl"
	case Columnar:
		return "columnar"
	default:
		return "auto"
	}
}

// config carries the resolved options of a Writer or Reader.
type config struct {
	format   Format
	corpus   *corpus.Corpus
	universe *cauniverse.Universe
}

// Option configures a Writer or Reader.
type Option func(*config)

// WithFormat pins the on-disk format. The default (Auto) detects the
// format on read and writes JSONL.
func WithFormat(f Format) Option {
	return func(c *config) { c.format = f }
}

// WithCorpus sets the intern table certificates resolve through (default:
// the process-wide shared corpus). Populations loaded for analysis should
// share one corpus with the stores and Notary they are compared against.
func WithCorpus(cp *corpus.Corpus) Option {
	return func(c *config) { c.corpus = cp }
}

// WithUniverse sets the CA universe loaded populations are assembled
// against (default: the shared default universe).
func WithUniverse(u *cauniverse.Universe) Option {
	return func(c *config) { c.universe = u }
}

func resolve(opts []Option) config {
	cfg := config{corpus: corpus.Shared()}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.corpus == nil {
		cfg.corpus = corpus.Shared()
	}
	if cfg.universe == nil {
		cfg.universe = cauniverse.Default()
	}
	return cfg
}

// Writer serializes populations into one dataset directory. Construct with
// NewWriter; safe for sequential reuse, one Write per call.
type Writer struct {
	dir string
	cfg config
}

// NewWriter returns a writer for the dataset directory dir (created on the
// first Write if needed).
func NewWriter(dir string, opts ...Option) *Writer {
	return &Writer{dir: dir, cfg: resolve(opts)}
}

// Write serializes p into the writer's directory in the configured format
// (Auto writes JSONL).
func (w *Writer) Write(ctx context.Context, p *population.Population) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dataset: write cancelled: %w", err)
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return fmt.Errorf("dataset: creating %s: %w", w.dir, err)
	}
	switch w.cfg.format {
	case Columnar:
		return writeColumnar(ctx, w.dir, p, w.cfg)
	default:
		return writeJSONL(ctx, w.dir, p, w.cfg)
	}
}

// Reader loads populations from one dataset directory. Construct with
// NewReader.
type Reader struct {
	dir string
	cfg config
}

// NewReader returns a reader for the dataset directory dir.
func NewReader(dir string, opts ...Option) *Reader {
	return &Reader{dir: dir, cfg: resolve(opts)}
}

// format resolves Auto to the directory's actual layout.
func (r *Reader) format() Format {
	if r.cfg.format != Auto {
		return r.cfg.format
	}
	if _, err := os.Stat(columnarPath(r.dir)); err == nil {
		return Columnar
	}
	return JSONL
}

// Read loads the dataset, reconstructing live devices and assembling a
// Population against the configured universe.
func (r *Reader) Read(ctx context.Context) (*population.Population, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read cancelled: %w", err)
	}
	switch r.format() {
	case Columnar:
		return readColumnar(ctx, r.dir, r.cfg)
	default:
		return readJSONL(ctx, r.dir, r.cfg)
	}
}

// Info summarizes a dataset directory.
type Info struct {
	// Format is the resolved on-disk layout.
	Format Format
	// Handsets, Certs and Sessions are the record counts; Bytes is the
	// total on-disk size of the dataset files.
	Handsets int
	Certs    int
	Sessions int
	Bytes    int64
	// Sections lists the columnar file's sections (nil for JSONL).
	Sections []SectionInfo
}

// SectionInfo describes one section of a columnar dataset file.
type SectionInfo struct {
	Name   string
	Offset int64
	Length int64
	CRC32C uint32
}

// Inspect summarizes the dataset without materializing the population: a
// columnar file answers from its header and meta section; a JSONL dataset
// is scanned without device reconstruction.
func (r *Reader) Inspect(ctx context.Context) (*Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dataset: inspect cancelled: %w", err)
	}
	switch r.format() {
	case Columnar:
		return inspectColumnar(r.dir, false)
	default:
		return inspectJSONL(ctx, r.dir, r.cfg, false)
	}
}

// Verify checks the dataset's integrity without assembling a population:
// every columnar section is read and CRC-checked (truncation and bit-flips
// fail loudly); a JSONL dataset is fully parsed and every certificate
// reference resolved. The summary of the verified dataset is returned.
func (r *Reader) Verify(ctx context.Context) (*Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dataset: verify cancelled: %w", err)
	}
	switch r.format() {
	case Columnar:
		return inspectColumnar(r.dir, true)
	default:
		return inspectJSONL(ctx, r.dir, r.cfg, true)
	}
}
