// Package rootstore models X.509 root certificate stores: ordered sets of
// trusted CA certificates with set operations defined over the paper's
// certificate equivalence (same subject + key) rather than byte equality.
//
// A Store corresponds to what the paper calls a "root store population":
// the AOSP store for a given Android version, Mozilla's store, iOS7's store,
// or the store observed on one device in the wild. It also reads and writes
// the on-disk format Android uses (/system/etc/security/cacerts: one PEM file
// per root named <subject-hash>.<n>).
//
// Membership is held as corpus.Ref handles into a content-addressed
// certificate corpus: the store never re-parses or re-fingerprints a
// certificate, and its pool content key is maintained incrementally on
// Add/Remove instead of re-sorting and re-hashing the whole pool.
//
// A store's memory is pointer-free: insertion order is a []corpus.Ref and
// membership an index from the corpus's identity handles to member refs,
// sorted by handle — 12 bytes per member. Clone is two flat copies the
// garbage collector never scans, and set operations between stores of one
// corpus compare integers. Stores of different corpora are compared by
// certid.Identity, resolved through the other corpus's lock-free
// LookupIdentity.
package rootstore

import (
	"crypto/x509"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// Store is a set of root certificates indexed by the paper's certificate
// identity. Insertion order is preserved for deterministic iteration. The
// zero value is not usable; construct with New or NewIn.
type Store struct {
	name  string
	c     *corpus.Corpus
	order []corpus.Ref
	// index holds one member per identity, sorted by identity handle.
	index []member
	// digest is the XOR of member content digests — an incremental,
	// order-independent fingerprint of the exact membership bytes,
	// updated on Add and Remove. chain derives its pool keys from it.
	digest corpus.Digest
}

// member is one index slot: an identity handle and the member holding it.
type member struct {
	id  corpus.IdentityRef
	ref corpus.Ref
}

// New returns an empty store with the given name, interning into the
// process-wide shared corpus.
func New(name string) *Store { return NewIn(name, corpus.Shared()) }

// NewIn returns an empty store interning into the given corpus. Stores
// that are compared or pooled together should share one corpus.
func NewIn(name string, c *corpus.Corpus) *Store {
	return &Store{name: name, c: c}
}

// NewSized is NewIn with capacity hints: the index and insertion-order
// slices are pre-sized for n members, so bulk loaders (dataset readers,
// snapshot restores) pay one allocation per structure instead of a growth
// series.
func NewSized(name string, c *corpus.Corpus, n int) *Store {
	return &Store{
		name:  name,
		c:     c,
		order: make([]corpus.Ref, 0, n),
		index: make([]member, 0, n),
	}
}

// Name returns the store's name (e.g. "AOSP 4.4").
func (s *Store) Name() string { return s.name }

// Corpus returns the intern table the store's refs resolve against.
func (s *Store) Corpus() *corpus.Corpus { return s.c }

// Len returns the number of distinct (by identity) certificates.
func (s *Store) Len() int { return len(s.order) }

// find returns the index position of identity handle h and whether a
// member holds it. The zero handle is never held.
func (s *Store) find(h corpus.IdentityRef) (int, bool) {
	lo, hi := 0, len(s.index)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.index[m].id < h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.index) && s.index[lo].id == h
}

// Add inserts cert. It returns false if an equivalent certificate (same
// subject and key) is already present, in which case the store is unchanged:
// the first-seen instance wins, mirroring how a device's store keeps one
// file per root.
func (s *Store) Add(cert *x509.Certificate) bool {
	return s.AddRef(s.c.InternCert(cert))
}

// AddRef inserts an already-interned certificate by handle. The ref must
// come from the store's corpus.
func (s *Store) AddRef(ref corpus.Ref) bool {
	e := s.c.Entry(ref)
	if e == nil {
		return false
	}
	i, ok := s.find(e.IdentityRef)
	if ok {
		return false
	}
	s.index = slices.Insert(s.index, i, member{e.IdentityRef, ref})
	s.order = append(s.order, ref)
	s.digest.XOR(e.Digest)
	return true
}

// AddAll inserts each certificate, returning how many were new.
func (s *Store) AddAll(certs []*x509.Certificate) int {
	n := 0
	for _, c := range certs {
		if s.Add(c) {
			n++
		}
	}
	return n
}

// Remove deletes the certificate with the given identity, returning whether
// it was present.
func (s *Store) Remove(id certid.Identity) bool {
	i, ok := s.find(s.c.LookupIdentity(id))
	if !ok {
		return false
	}
	ref := s.index[i].ref
	s.index = slices.Delete(s.index, i, i+1)
	j := slices.Index(s.order, ref)
	s.order = slices.Delete(s.order, j, j+1)
	s.digest.XOR(s.c.Entry(ref).Digest)
	return true
}

// Contains reports whether an equivalent certificate is present.
func (s *Store) Contains(cert *x509.Certificate) bool {
	_, ok := s.find(s.c.IdentityRefOf(s.c.InternCert(cert)))
	return ok
}

// ContainsRef reports whether an equivalent of certificate r of corpus c
// is present. Nothing is interned: within s's corpus it compares identity
// handles, across corpora it looks r's identity up in s's corpus (which
// has no handle for an identity it never interned).
func (s *Store) ContainsRef(c *corpus.Corpus, r corpus.Ref) bool {
	var h corpus.IdentityRef
	if c == s.c {
		h = c.IdentityRefOf(r)
	} else {
		h = s.c.LookupIdentity(c.Identity(r))
	}
	_, ok := s.find(h)
	return ok
}

// ContainsHandle reports whether a member holds identity handle h, which
// must come from the store's corpus.
func (s *Store) ContainsHandle(h corpus.IdentityRef) bool {
	_, ok := s.find(h)
	return ok
}

// ContainsIdentity reports whether the identity is present.
func (s *Store) ContainsIdentity(id certid.Identity) bool {
	_, ok := s.find(s.c.LookupIdentity(id))
	return ok
}

// Get returns the stored certificate for id, or nil.
func (s *Store) Get(id certid.Identity) *x509.Certificate {
	if ref := s.Ref(id); ref != 0 {
		return s.c.Cert(ref)
	}
	return nil
}

// Ref returns the corpus handle for id (zero when absent).
func (s *Store) Ref(id certid.Identity) corpus.Ref {
	if i, ok := s.find(s.c.LookupIdentity(id)); ok {
		return s.index[i].ref
	}
	return 0
}

// Refs returns the member handles in insertion order. The returned slice
// is freshly allocated; mutating it does not affect the store.
func (s *Store) Refs() []corpus.Ref {
	return append(make([]corpus.Ref, 0, len(s.order)), s.order...)
}

// RefAt returns the handle of the i-th member in insertion order,
// 0 <= i < Len. Unlike Refs it copies nothing.
func (s *Store) RefAt(i int) corpus.Ref { return s.order[i] }

// Certificates returns the certificates in insertion order. The returned
// slice is freshly allocated; mutating it does not affect the store.
func (s *Store) Certificates() []*x509.Certificate {
	return s.c.Certs(s.order)
}

// ContentKey is an order-independent fingerprint of the exact membership
// bytes, maintained incrementally: adding a member XORs its content digest
// in, removing XORs it back out. Two stores with equal ContentKeys hold
// byte-identical membership (up to ordering). The member count is appended
// so the empty store and degenerate XOR cancellations stay distinct.
func (s *Store) ContentKey() string {
	return s.digest.Hex() + "/" + strconv.Itoa(len(s.order))
}

// ContentDigest returns the raw XOR accumulator behind ContentKey.
func (s *Store) ContentDigest() corpus.Digest { return s.digest }

// Clone returns a deep copy of the membership (certificates themselves are
// shared through the corpus, which treats them as immutable). Both slices
// are pointer-free and copied flat, so cloning is cheap enough to stamp out
// per-device stores from a shared prototype.
func (s *Store) Clone(name string) *Store {
	return &Store{
		name:   name,
		c:      s.c,
		order:  slices.Clone(s.order),
		index:  slices.Clone(s.index),
		digest: s.digest,
	}
}

// Union returns a new store containing every certificate present in any of
// the inputs (first instance of each identity wins). The union interns into
// the first input's corpus (the shared corpus when there are no inputs).
func Union(name string, stores ...*Store) *Store {
	cp := corpus.Shared()
	if len(stores) > 0 {
		cp = stores[0].c
	}
	u := NewIn(name, cp)
	for _, st := range stores {
		if st.c == cp {
			for _, ref := range st.order {
				u.AddRef(ref)
			}
			continue
		}
		for _, c := range st.Certificates() {
			u.Add(c)
		}
	}
	return u
}

// Intersect returns a new store with the certificates of a whose identities
// also appear in b.
func Intersect(name string, a, b *Store) *Store {
	out := NewIn(name, a.c)
	for _, ref := range a.order {
		if b.ContainsRef(a.c, ref) {
			out.AddRef(ref)
		}
	}
	return out
}

// Subtract returns a new store with the certificates of a whose identities
// do not appear in b.
func Subtract(name string, a, b *Store) *Store {
	out := NewIn(name, a.c)
	for _, ref := range a.order {
		if !b.ContainsRef(a.c, ref) {
			out.AddRef(ref)
		}
	}
	return out
}

// DiffResult reports a three-way comparison of two stores under equivalence.
type DiffResult struct {
	OnlyA []*x509.Certificate // in a but not b
	OnlyB []*x509.Certificate // in b but not a
	Both  []*x509.Certificate // a's instance of certificates present in both
}

// Diff compares two stores under certificate equivalence.
func Diff(a, b *Store) DiffResult {
	var d DiffResult
	for _, ref := range a.order {
		c := a.c.Cert(ref)
		if b.ContainsRef(a.c, ref) {
			d.Both = append(d.Both, c)
		} else {
			d.OnlyA = append(d.OnlyA, c)
		}
	}
	for _, ref := range b.order {
		if !a.ContainsRef(b.c, ref) {
			d.OnlyB = append(d.OnlyB, b.c.Cert(ref))
		}
	}
	return d
}

// ByteIntersectCount counts the certificates of a that appear byte-identical
// (same DER encoding) in b. Contrast with Intersect, which matches under the
// paper's subject+key equivalence: §2 reports 117 byte-shared roots between
// AOSP 4.4 and Mozilla while Table 4 counts 130 equivalence-shared. Byte
// identity is answered from interned content digests — no DER is touched.
func ByteIntersectCount(a, b *Store) int {
	raw := make(map[corpus.Digest]bool, b.Len())
	for _, ref := range b.order {
		raw[b.c.Entry(ref).Digest] = true
	}
	n := 0
	for _, ref := range a.order {
		if raw[a.c.Entry(ref).Digest] {
			n++
		}
	}
	return n
}

// Equal reports whether two stores contain exactly the same identities.
// Within one corpus that is equality of the sorted handle indexes.
func Equal(a, b *Store) bool {
	if a.Len() != b.Len() {
		return false
	}
	if a.c == b.c {
		for i, m := range a.index {
			if b.index[i].id != m.id {
				return false
			}
		}
		return true
	}
	for _, ref := range a.order {
		if !b.ContainsRef(a.c, ref) {
			return false
		}
	}
	return true
}

// IdentitySet is a set of certificate identities gathered from stores,
// held per corpus as a bitset over identity handles: adding a store sets
// one bit per member, and only Len over several corpora resolves handles
// back to identities. The zero value is an empty set.
type IdentitySet struct {
	corpora []*corpus.Corpus
	bits    [][]uint64 // bits[k] is the handle bitset of corpora[k]
}

// words returns the bitset of corpus c, grown to hold handle h.
func (s *IdentitySet) words(c *corpus.Corpus, h corpus.IdentityRef) []uint64 {
	k := slices.Index(s.corpora, c)
	if k < 0 {
		k = len(s.corpora)
		s.corpora = append(s.corpora, c)
		s.bits = append(s.bits, nil)
	}
	if need := int(h>>6) + 1; need > len(s.bits[k]) {
		s.bits[k] = append(s.bits[k], make([]uint64, need-len(s.bits[k]))...)
	}
	return s.bits[k]
}

// AddStore adds the identities of st's members.
func (s *IdentitySet) AddStore(st *Store) {
	if len(st.index) == 0 {
		return
	}
	w := s.words(st.c, st.index[len(st.index)-1].id)
	for _, m := range st.index {
		w[m.id>>6] |= 1 << (m.id & 63)
	}
}

// Len returns the number of distinct identities in the set.
func (s *IdentitySet) Len() int {
	if len(s.corpora) <= 1 {
		n := 0
		for _, w := range s.bits {
			for _, b := range w {
				n += bits.OnesCount64(b)
			}
		}
		return n
	}
	// Handles of different corpora may name one identity.
	ids := make(map[certid.Identity]bool)
	for k, c := range s.corpora {
		for i, b := range s.bits[k] {
			for ; b != 0; b &= b - 1 {
				ids[c.IdentityEntry(corpus.IdentityRef(i<<6+bits.TrailingZeros64(b))).Identity] = true
			}
		}
	}
	return len(ids)
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("%s (%d roots)", s.name, s.Len())
}
