// Package refscope exercises the corpus-handle provenance rule: Refs and
// identity handles crossing corpus boundaries directly, through
// cross-package helpers, serialized handle fields, and handle-keyed maps in
// multi-corpus structs.
package refscope

import (
	"sandbox/corpus"
	"sandbox/refhelp"
)

// CrossDirect produces a Ref from one corpus and resolves it against
// another in the same function.
func CrossDirect(a, b *corpus.Corpus, der []byte) []byte {
	r := a.Intern(der)
	return b.DER(r)
}

// CrossViaHelpers launders the Ref through package refhelp in both
// directions — invisible to any single-package check, caught only through
// the producer/consumer facts.
func CrossViaHelpers(a, b *corpus.Corpus, der []byte) []byte {
	r := refhelp.Pick(a, der)
	return refhelp.Dump(b, r)
}

// SameCorpus is the negative: produce and consume against one corpus,
// directly and through the helpers.
func SameCorpus(a *corpus.Corpus, der []byte) string {
	r := a.Intern(der)
	_ = a.DER(r)
	h := refhelp.Pick(a, der)
	return refhelp.Label(a, h)
}

// SavedEntry serializes a Ref: the handle is process-local interning
// state, meaningless to any other process.
type SavedEntry struct {
	Name string     `json:"name"`
	Root corpus.Ref `json:"root"`
}

// memoEntry holds a Ref without serializing it: fine.
type memoEntry struct {
	name string
	root corpus.Ref
}

// TwoStores holds two corpora and a map keyed by bare Ref — the key cannot
// name which corpus issued it.
type TwoStores struct {
	AOSP   *corpus.Corpus
	Vendor *corpus.Corpus
	seen   map[corpus.Ref]bool
}

// OneStore keys by Ref next to a single corpus: unambiguous, clean.
type OneStore struct {
	Store *corpus.Corpus
	seen  map[corpus.Ref]bool
}

// CrossSanctioned shows the documented escape hatch: a reasoned inline
// suppression for a mirror corpus rebuilt with identical interning order.
func CrossSanctioned(a, b *corpus.Corpus, der []byte) []byte {
	r := a.Intern(der)
	//lint:ignore refscope mirror corpus is rebuilt with identical interning order
	return b.DER(r)
}

// CrossIdentity derives an identity handle in one corpus and resolves it
// in another: identity handles are per-corpus numbering too.
func CrossIdentity(a, b *corpus.Corpus, der []byte) []byte {
	h := a.IdentityRefOf(a.Intern(der))
	return b.IdentityEntry(h)
}

// CrossIdentityViaHelpers launders an identity handle through package
// refhelp's producer and consumer.
func CrossIdentityViaHelpers(a, b *corpus.Corpus, id string) []byte {
	h := refhelp.Handle(a, id)
	return refhelp.First(b, h)
}

// SameCorpusIdentity is the negative: handle and lookup share a corpus.
func SameCorpusIdentity(a *corpus.Corpus, id string) []byte {
	h := a.LookupIdentity(id)
	_ = a.IdentityEntry(h)
	return refhelp.First(a, refhelp.Handle(a, id))
}

// SavedRoots persists identity handles, which are as process-local as Refs.
type SavedRoots struct {
	Roots []corpus.IdentityRef `gob:"roots"`
}

// TwoTallies counts by bare identity handle next to two corpora.
type TwoTallies struct {
	Shared *corpus.Corpus
	Pass   *corpus.Corpus
	counts map[corpus.IdentityRef]int
}

// OneTally keys by identity handle next to a single corpus: clean.
type OneTally struct {
	Pass   *corpus.Corpus
	counts map[corpus.IdentityRef]int
}

// use keeps the unexported types referenced.
func use(m memoEntry, s TwoStores, o OneStore, tt TwoTallies, ot OneTally) (string, int, int, int) {
	return m.name, len(s.seen), len(o.seen), len(tt.counts) + len(ot.counts)
}
