// Package faultfs is a deterministic, seed-driven filesystem fault
// injector: the storage twin of internal/faultnet. It defines the narrow
// FS interface the notary's durability layer does all of its I/O through
// (create, write, sync, rename, remove, open, read-dir), a disk-backed
// implementation, an in-memory implementation with crash semantics
// (MemFS), and an Injector that wraps any FS in a seeded Plan of short and
// torn writes, fsync errors, rename failures, out-of-space errors, and
// read-back corruption.
//
// Determinism is the load-bearing property, exactly as in faultnet. The
// fault decision for the n-th faultable operation on a path is a pure
// function of (plan seed, scope, path, n): no shared PRNG stream is
// consumed across files, so goroutine interleaving cannot perturb
// outcomes, and a crashpoint sweep under the same seed produces the same
// per-path fault ledger on every run. All randomness flows through the
// seeded stats.Source (the detrand rule holds this package to it) and no
// wall-clock is read.
package faultfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"tangledmass/internal/stats"
)

// File is an open file handle. Writes are buffered by the OS until Sync;
// the durability layer must treat nothing as persisted before Sync
// returns nil.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's written data to stable storage.
	Sync() error
}

// FS is the filesystem surface the notary durability layer is written
// against. Keeping it this narrow is what makes every I/O path drivable by
// the fault injector and the crash harness.
type FS interface {
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// Rename atomically replaces newpath with oldpath. Durability of the
	// name change requires a following SyncDir on the parent directory.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir returns the sorted base names of dir's entries.
	ReadDir(dir string) ([]string, error)
	// SyncDir flushes dir's entry table — the fsync that makes creates,
	// renames and removes in dir durable.
	SyncDir(dir string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
}

// Disk is the real filesystem.
var Disk FS = diskFS{}

type diskFS struct{}

func (diskFS) Create(path string) (File, error) { return os.Create(path) }
func (diskFS) Open(path string) (File, error)   { return os.Open(path) }
func (diskFS) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}
func (diskFS) Remove(path string) error  { return os.Remove(path) }
func (diskFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
func (diskFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some filesystems; surface real errors
	// but tolerate EINVAL from filesystems that reject fsync on directories.
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

func (diskFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Kind names one injectable filesystem fault.
type Kind string

const (
	// None means the operation proceeds untouched.
	None Kind = ""
	// TornWrite persists only a seed-determined prefix of the write and
	// fails with a short-write error — the partially applied write a crash
	// mid-write leaves behind.
	TornWrite Kind = "tornwrite"
	// NoSpace fails the write with ENOSPC before any byte is written.
	NoSpace Kind = "nospace"
	// SyncErr fails the fsync with EIO; the data's durability is unknown.
	SyncErr Kind = "syncerr"
	// RenameErr fails the rename with EIO, leaving the old name in place.
	RenameErr Kind = "renameerr"
	// CorruptRead flips the first byte returned by a read — latent media
	// corruption surfacing at read-back time.
	CorruptRead Kind = "corruptread"
)

// Plan is a seeded filesystem fault schedule. Probabilities are per
// operation of the matching category; the write-category probabilities
// must sum to at most 1.
type Plan struct {
	// Seed drives every fault decision.
	Seed int64

	// TornWriteProb and NoSpaceProb apply per Write call.
	TornWriteProb float64
	NoSpaceProb   float64
	// SyncErrProb applies per file Sync and per SyncDir call.
	SyncErrProb float64
	// RenameErrProb applies per Rename call.
	RenameErrProb float64
	// CorruptReadProb applies per Read call.
	CorruptReadProb float64
}

func (p Plan) prob(k Kind) float64 {
	switch k {
	case TornWrite:
		return p.TornWriteProb
	case NoSpace:
		return p.NoSpaceProb
	case SyncErr:
		return p.SyncErrProb
	case RenameErr:
		return p.RenameErrProb
	case CorruptRead:
		return p.CorruptReadProb
	}
	return 0
}

// Injector executes a Plan over wrapped filesystems and keeps the fault
// ledger. Safe for concurrent use.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	seq    map[string]uint64 // per-(scope|path) op counter
	ledger map[Kind]map[string]int
	ops    map[string]int // per-path op counter, faulted or not
	total  int
}

// New builds an injector for the plan. It panics on probabilities outside
// [0,1] or a write-category sum above 1 — a misconfigured fault run should
// fail loudly, not skew silently.
func New(plan Plan) *Injector {
	for _, k := range []Kind{TornWrite, NoSpace, SyncErr, RenameErr, CorruptRead} {
		pr := plan.prob(k)
		if pr < 0 || pr > 1 {
			panic(fmt.Sprintf("faultfs: probability for %q out of [0,1]: %v", k, pr))
		}
	}
	if plan.TornWriteProb+plan.NoSpaceProb > 1 {
		panic(fmt.Sprintf("faultfs: write-fault probabilities sum to %v > 1",
			plan.TornWriteProb+plan.NoSpaceProb))
	}
	return &Injector{
		plan:   plan,
		seq:    make(map[string]uint64),
		ledger: make(map[Kind]map[string]int),
		ops:    make(map[string]int),
	}
}

// draw returns the deterministic random source for the next operation on
// (scope, path) and advances the per-path ordinal. The stream position is
// a pure function of (seed, scope, path, ordinal), so file interleaving
// cannot perturb another path's decisions.
func (in *Injector) draw(scope, path string) *stats.Source {
	flow := scope + "|" + path
	in.mu.Lock()
	n := in.seq[flow]
	in.seq[flow] = n + 1
	in.ops[path]++
	in.mu.Unlock()

	h := fnv.New64a()
	// Hash writes never fail.
	_, _ = io.WriteString(h, fmt.Sprintf("%d|%s|%d", in.plan.Seed, flow, n))
	return stats.NewSource(int64(h.Sum64()))
}

// record notes one fired fault in the ledger.
func (in *Injector) record(kind Kind, path string) {
	in.mu.Lock()
	m := in.ledger[kind]
	if m == nil {
		m = make(map[string]int)
		in.ledger[kind] = m
	}
	m[path]++
	in.total++
	in.mu.Unlock()
}

// FS wraps next so every operation flows through the plan. The scope
// isolates the decision stream, exactly like faultnet scopes: give each
// run its own scope and outcomes replay byte-identically per seed.
func (in *Injector) FS(next FS, scope string) FS {
	return &faultFS{in: in, next: next, scope: scope}
}

type faultFS struct {
	in    *Injector
	next  FS
	scope string
}

func (f *faultFS) Create(path string) (File, error) {
	file, err := f.next.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: f.in, next: file, scope: f.scope, path: path}, nil
}

func (f *faultFS) Open(path string) (File, error) {
	file, err := f.next.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: f.in, next: file, scope: f.scope, path: path}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	src := f.in.draw(f.scope, oldpath)
	if src.Float64() < f.in.plan.RenameErrProb {
		f.in.record(RenameErr, oldpath)
		return fmt.Errorf("faultfs: injected rename failure %s -> %s: %w",
			oldpath, newpath, syscall.EIO)
	}
	return f.next.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(path string) error             { return f.next.Remove(path) }
func (f *faultFS) ReadDir(dir string) ([]string, error) { return f.next.ReadDir(dir) }
func (f *faultFS) MkdirAll(dir string) error            { return f.next.MkdirAll(dir) }

func (f *faultFS) SyncDir(dir string) error {
	src := f.in.draw(f.scope, dir)
	if src.Float64() < f.in.plan.SyncErrProb {
		f.in.record(SyncErr, dir)
		return fmt.Errorf("faultfs: injected fsync failure for directory %s: %w", dir, syscall.EIO)
	}
	return f.next.SyncDir(dir)
}

type faultFile struct {
	in    *Injector
	next  File
	scope string
	path  string
}

func (f *faultFile) Write(p []byte) (int, error) {
	src := f.in.draw(f.scope, f.path)
	x := src.Float64()
	switch {
	case x < f.in.plan.TornWriteProb:
		f.in.record(TornWrite, f.path)
		// Persist a strict prefix so the torn record is visible on replay;
		// the prefix length is drawn from the same per-op stream.
		keep := 0
		if len(p) > 0 {
			keep = src.Intn(len(p))
		}
		n, err := f.next.Write(p[:keep])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faultfs: injected torn write to %s (%d of %d bytes): %w",
			f.path, keep, len(p), io.ErrShortWrite)
	case x < f.in.plan.TornWriteProb+f.in.plan.NoSpaceProb:
		f.in.record(NoSpace, f.path)
		return 0, fmt.Errorf("faultfs: injected out-of-space writing %s: %w", f.path, syscall.ENOSPC)
	}
	return f.next.Write(p)
}

func (f *faultFile) Sync() error {
	src := f.in.draw(f.scope, f.path)
	if src.Float64() < f.in.plan.SyncErrProb {
		f.in.record(SyncErr, f.path)
		return fmt.Errorf("faultfs: injected fsync failure for %s: %w", f.path, syscall.EIO)
	}
	return f.next.Sync()
}

func (f *faultFile) Read(p []byte) (int, error) {
	n, err := f.next.Read(p)
	if n > 0 {
		src := f.in.draw(f.scope, f.path)
		if src.Float64() < f.in.plan.CorruptReadProb {
			f.in.record(CorruptRead, f.path)
			p[0] ^= 0xFF
		}
	}
	return n, err
}

func (f *faultFile) Close() error { return f.next.Close() }

// Join builds an FS path from components, normalized for both Disk and
// MemFS (forward-slash cleaned).
func Join(elem ...string) string { return filepath.ToSlash(filepath.Join(elem...)) }
