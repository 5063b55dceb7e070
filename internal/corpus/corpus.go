// Package corpus is the content-addressed certificate intern table: every
// certificate the system touches — root-store members, observed leaves,
// snapshot entries, wire-decoded chains — is parsed exactly once, its
// identity and fingerprints computed exactly once, and referenced everywhere
// else by a compact Ref handle.
//
// The paper's analyses (§4–§6) pool, compare and validate the same small
// universe of certificates across 41+ root stores and millions of simulated
// sessions. Before the corpus each layer held its own *x509.Certificate
// copies and recomputed identities and fingerprints behind scattered memo
// maps; the corpus centralizes that work behind one table so repeated
// observations of the same certificate cost a map hit.
//
// # Ownership and immutability
//
// An Entry is immutable after creation: the corpus owns the DER copy, the
// parsed certificate, and the precomputed identity and fingerprints, and
// none of them ever change. Intern copies its input before parsing, so
// callers may reuse or overwrite their buffers (the tap's record
// reassembly buffer, for example) without corrupting the table. A Ref is a
// plain uint32, trivially comparable and hashable, and — because entries
// are immutable and refs are never reused — safe to use as a map key and
// to share across goroutines without synchronization.
//
// Ref values are process-local and assigned in interning order; two runs
// interning in different orders number the same certificates differently.
// Never order output by Ref — sort by fingerprint or identity, as the
// deterministic layers do.
//
// # Identity handles
//
// Certificates that differ in bytes but share a subject and key (a CA
// re-issuing its root with a new expiry) are one identity in the paper's
// sense. The corpus numbers distinct identities too: the first certificate
// interned with an identity is assigned the next IdentityRef, and every
// later equivalent certificate shares it. An IdentityRef is, like a Ref,
// dense, process-local and meaningful only in the corpus that assigned it;
// code comparing across corpora matches on certid.Identity. LookupIdentity
// maps an identity to its handle without taking a lock.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"

	"tangledmass/internal/certid"
)

// Ref is a dense handle to one interned certificate. The zero Ref is
// invalid: valid handles start at 1, so a Ref's presence can be tested
// against zero without an ok-bool.
type Ref uint32

// IdentityRef is a dense handle to one distinct certificate identity
// (subject + key) in one corpus, shared by every equivalent certificate.
// The zero IdentityRef is invalid; valid handles start at 1 and are
// assigned in the order identities are first interned.
type IdentityRef uint32

// Digest is the SHA-256 of a certificate's DER encoding — the content
// address the table is keyed by.
type Digest [sha256.Size]byte

// Hex renders the digest as lowercase hex.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// XOR folds o into d in place. XOR of member digests is an incremental,
// order-independent set fingerprint: adding a member XORs its digest in,
// removing XORs it back out. rootstore and chain use it to derive pool
// keys without re-sorting and re-hashing whole membership lists.
func (d *Digest) XOR(o Digest) {
	for i := range d {
		d[i] ^= o[i]
	}
}

// Entry carries everything computed for one interned certificate. All
// fields are immutable after creation; callers must not modify DER, Cert,
// or any other field.
type Entry struct {
	// Ref is the entry's handle in its corpus.
	Ref Ref
	// DER is the corpus-owned copy of the certificate encoding.
	DER []byte
	// Cert is the parsed certificate.
	Cert *x509.Certificate
	// Identity is the paper's certificate identity (subject + key).
	Identity certid.Identity
	// IdentityRef is the corpus's handle for Identity, shared with every
	// equivalent entry.
	IdentityRef IdentityRef
	// SHA1 and SHA256 are hex fingerprints of the DER encoding.
	SHA1   string
	SHA256 string
	// SubjectHash is the 32-bit OpenSSL-style subject hash used in Android
	// cacerts file names.
	SubjectHash uint32
	// Digest is the raw SHA-256 content address.
	Digest Digest
	// SubjectKey and IssuerKey are 64-bit FNV-1a hashes of RawSubject and
	// RawIssuer: a verifier sorts its issuer candidates by SubjectKey and
	// looks a certificate's issuers up by IssuerKey, so no pool build
	// hashes a name. Equal keys do not imply equal names; callers compare
	// the raw bytes.
	SubjectKey uint64
	IssuerKey  uint64

	identHash uint64 // identHash(Identity): the identity index's probe start
}

// newEntry computes everything about a certificate that does not depend on
// the table: its identity and fingerprints. Interning does this before
// taking the write lock; Ref and IdentityRef are assigned under it.
func newEntry(sum Digest, der []byte, cert *x509.Certificate) *Entry {
	id := certid.Identity{Subject: certid.SubjectString(cert), Key: certid.KeyIdentity(cert)}
	return &Entry{
		DER:         der,
		Cert:        cert,
		Identity:    id,
		SHA1:        certid.SHA1Fingerprint(cert),
		SHA256:      sum.Hex(),
		SubjectHash: certid.SubjectHash32(cert),
		Digest:      sum,
		SubjectKey:  nameKey(cert.RawSubject),
		IssuerKey:   nameKey(cert.RawIssuer),
		identHash:   identHash(id),
	}
}

// nameKey is the 64-bit FNV-1a hash of a DER-encoded name. It is
// deterministic across processes, unlike the identity index's seeded hash.
func nameKey(der []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(der) // a hash.Hash never returns an error
	return h.Sum64()
}

// identSeed keys the identity index's hash. It only places identities in
// slots; handle numbering never depends on it.
var identSeed = maphash.MakeSeed()

func identHash(id certid.Identity) uint64 {
	return maphash.String(identSeed, id.Subject) ^ bits.RotateLeft64(maphash.String(identSeed, string(id.Key)), 31)
}

// Corpus is a concurrency-safe intern table. Construct with New, or use
// the process-wide Shared table. The zero value is not usable.
//
// The entry table is append-only. Writers (under mu) append into table's
// spare capacity, growing it geometrically, and publish the longer slice
// header through view. An element is written once, before the header
// that covers it is published, and never again; readers index only within
// their own snapshot's length, so they need no lock and never observe a
// write in progress. Interning a new certificate costs amortized O(1),
// whatever the table's size.
//
// Identity handles follow the same discipline: firsts records, per handle,
// the Ref of the first entry with that identity, and slots is an
// open-addressing hash index (linear probing, at most half full) from
// identity to that Ref. Writers fill empty slots with atomic stores and
// replace the whole array when it grows; a reader probing a published
// array skips any slot naming an entry beyond its snapshot, so a lookup
// never sees an identity before its entry is published.
type Corpus struct {
	id     uint64
	mu     sync.RWMutex
	byHash map[Digest]Ref
	table  []*Entry             // writers' view, guarded by mu
	firsts []Ref                // writers' view, guarded by mu: firsts[h-1] is the first Ref with handle h
	slots  []atomic.Uint32      // writers' view, guarded by mu: the identity index
	view   atomic.Pointer[view] // published prefixes for lock-free reads
	byPtr  sync.Map             // *x509.Certificate → Ref, the repeat-observation fast path

	// sigs memoizes signature checks by (child, parent) ref pair, both
	// outcomes. See CheckSignature.
	sigMu sync.Mutex
	sigs  map[edge]bool

	nInterned  atomic.Int64
	nHits      atomic.Int64
	nBytes     atomic.Int64
	nSigChecks atomic.Int64
}

// view is one published state of the tables: a prefix of the entry table,
// the matching prefix of firsts, and the identity index array current at
// publication.
type view struct {
	entries []*Entry
	firsts  []Ref
	slots   []atomic.Uint32
}

// nextID hands out process-unique corpus identifiers.
var nextID atomic.Uint64

// New returns an empty corpus.
func New() *Corpus {
	c := &Corpus{
		id:     nextID.Add(1),
		byHash: make(map[Digest]Ref),
		slots:  make([]atomic.Uint32, 16),
		sigs:   make(map[edge]bool),
	}
	c.publishLocked()
	return c
}

// shared is the process-wide default table. Layers that are not handed an
// explicit corpus intern here, which is what makes one certificate parsed
// by the tap, the wire protocol and a snapshot load land on the same Entry.
var shared = New()

// Shared returns the process-wide corpus.
func Shared() *Corpus { return shared }

// Intern returns the handle for der, parsing and inserting it when the
// content is new. The input is copied before parsing; callers keep
// ownership of der.
func (c *Corpus) Intern(der []byte) (Ref, error) {
	sum := Digest(sha256.Sum256(der))
	c.mu.RLock()
	ref, ok := c.byHash[sum]
	c.mu.RUnlock()
	if ok {
		c.nHits.Add(1)
		return ref, nil
	}
	own := bytes.Clone(der)
	cert, err := x509.ParseCertificate(own)
	if err != nil {
		return 0, fmt.Errorf("corpus: parsing certificate: %w", err)
	}
	return c.insert(newEntry(sum, own, cert)), nil
}

// InternCert returns the handle for an already-parsed certificate. A
// repeated pointer is a lock-free map hit; new content adopts cert as the
// entry's parsed form (certificates are immutable values throughout the
// system), with the DER copied so the entry owns its encoding.
func (c *Corpus) InternCert(cert *x509.Certificate) Ref {
	if v, ok := c.byPtr.Load(cert); ok {
		c.nHits.Add(1)
		return v.(Ref)
	}
	sum := Digest(sha256.Sum256(cert.Raw))
	c.mu.RLock()
	ref, ok := c.byHash[sum]
	c.mu.RUnlock()
	if ok {
		c.nHits.Add(1)
	} else {
		ref = c.insert(newEntry(sum, bytes.Clone(cert.Raw), cert))
	}
	c.byPtr.Store(cert, ref)
	return ref
}

// InternChain interns every certificate of a chain, preserving order.
func (c *Corpus) InternChain(chain []*x509.Certificate) []Ref {
	refs := make([]Ref, len(chain))
	for i, cert := range chain {
		refs[i] = c.InternCert(cert)
	}
	return refs
}

// InternAll interns a batch of encodings in one table transaction. Digests
// are checked against the table first, only genuinely new content is
// parsed and fingerprinted (outside the lock), and every new entry is
// appended under one lock acquisition and published once. This is the
// bulk path for loaders that materialize a whole deduplicated DER table at
// once (dataset columnar files, notary snapshots).
func (c *Corpus) InternAll(ders [][]byte) ([]Ref, error) {
	refs := make([]Ref, len(ders))
	sums := make([]Digest, len(ders))
	var miss []int
	c.mu.RLock()
	for i, der := range ders {
		sums[i] = Digest(sha256.Sum256(der))
		if ref, ok := c.byHash[sums[i]]; ok {
			refs[i] = ref
		} else {
			miss = append(miss, i)
		}
	}
	c.mu.RUnlock()
	c.nHits.Add(int64(len(ders) - len(miss)))
	if len(miss) == 0 {
		return refs, nil
	}

	// Parse and fingerprint the misses outside the lock; duplicate digests
	// within the batch are resolved under the lock below (the first
	// instance wins).
	fresh := make([]*Entry, len(miss))
	for k, i := range miss {
		own := bytes.Clone(ders[i])
		cert, err := x509.ParseCertificate(own)
		if err != nil {
			return nil, fmt.Errorf("corpus: parsing certificate %d of batch: %w", i, err)
		}
		fresh[k] = newEntry(sums[i], own, cert)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for k, i := range miss {
		if ref, ok := c.byHash[sums[i]]; ok {
			// Inserted by a concurrent intern or an earlier batch duplicate.
			refs[i] = ref
			c.nHits.Add(1)
			continue
		}
		refs[i] = c.appendLocked(fresh[k])
	}
	c.publishLocked()
	return refs, nil
}

// insert adds e unless its content is already present, resolving the
// insert race in favour of the first writer; a losing writer's entry is
// discarded.
func (c *Corpus) insert(e *Entry) Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ref, ok := c.byHash[e.Digest]; ok {
		c.nHits.Add(1)
		return ref
	}
	ref := c.appendLocked(e)
	c.publishLocked()
	return ref
}

// appendLocked numbers e, assigns its identity handle (a new one when no
// earlier entry shares its identity) and appends it. Callers hold mu and
// publish before releasing it.
func (c *Corpus) appendLocked(e *Entry) Ref {
	e.Ref = Ref(len(c.table) + 1)
	first, slot := findIdentity(c.slots, c.table, e.Identity, e.identHash)
	if first != nil {
		e.IdentityRef = first.IdentityRef
	} else {
		c.firsts = append(c.firsts, e.Ref)
		e.IdentityRef = IdentityRef(len(c.firsts))
	}
	c.table = append(c.table, e)
	c.byHash[e.Digest] = e.Ref
	if first == nil {
		c.slots[slot].Store(uint32(e.Ref))
		if 2*len(c.firsts) > len(c.slots) {
			c.growSlotsLocked()
		}
	}
	c.nInterned.Add(1)
	c.nBytes.Add(int64(len(e.DER)))
	return e.Ref
}

// growSlotsLocked doubles the identity index. Readers holding the old
// array keep probing it; it is never written again. Callers hold mu.
func (c *Corpus) growSlotsLocked() {
	slots := make([]atomic.Uint32, 2*len(c.slots))
	for _, r := range c.firsts {
		e := c.table[r-1]
		_, slot := findIdentity(slots, c.table, e.Identity, e.identHash)
		slots[slot].Store(uint32(r))
	}
	c.slots = slots
}

// findIdentity probes slots for id. It returns the first entry of table
// with that identity, or nil and the empty slot where id belongs. Slots
// naming refs beyond table are skipped: a reader's snapshot does not
// cover them yet.
func findIdentity(slots []atomic.Uint32, table []*Entry, id certid.Identity, hash uint64) (*Entry, uint64) {
	mask := uint64(len(slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		r := slots[i].Load()
		if r == 0 {
			return nil, i
		}
		if int(r) <= len(table) && table[r-1].Identity == id {
			return table[r-1], i
		}
	}
}

// publishLocked makes every appended entry and identity handle visible to
// lock-free readers. The published headers' capacities are clipped to
// their lengths, so no reader can append into the spare capacity writers
// fill. Callers hold mu.
func (c *Corpus) publishLocked() {
	c.view.Store(&view{
		entries: c.table[:len(c.table):len(c.table)],
		firsts:  c.firsts[:len(c.firsts):len(c.firsts)],
		slots:   c.slots,
	})
}

// ID returns a process-unique identifier for this corpus. Refs are only
// meaningful relative to the corpus that issued them; cache keys that embed
// a Ref include the corpus ID so handles from different tables cannot
// collide.
func (c *Corpus) ID() uint64 { return c.id }

// Entry returns the entry for r, or nil for the zero Ref or a handle from
// another corpus.
func (c *Corpus) Entry(r Ref) *Entry {
	entries := c.view.Load().entries
	if r == 0 || int(r) > len(entries) {
		return nil
	}
	return entries[r-1]
}

// IdentityRefOf returns the identity handle of r's certificate (zero for
// invalid refs).
func (c *Corpus) IdentityRefOf(r Ref) IdentityRef {
	if e := c.Entry(r); e != nil {
		return e.IdentityRef
	}
	return 0
}

// LookupIdentity returns this corpus's handle for id, or zero when no
// certificate with that identity has been interned. It takes no lock.
func (c *Corpus) LookupIdentity(id certid.Identity) IdentityRef {
	v := c.view.Load()
	if e, _ := findIdentity(v.slots, v.entries, id, identHash(id)); e != nil {
		return e.IdentityRef
	}
	return 0
}

// IdentityEntry returns the first entry interned with identity handle h,
// or nil for the zero handle or a handle from another corpus.
func (c *Corpus) IdentityEntry(h IdentityRef) *Entry {
	v := c.view.Load()
	if h == 0 || int(h) > len(v.firsts) {
		return nil
	}
	return v.entries[v.firsts[h-1]-1]
}

// Cert returns the parsed certificate for r, or nil.
func (c *Corpus) Cert(r Ref) *x509.Certificate {
	if e := c.Entry(r); e != nil {
		return e.Cert
	}
	return nil
}

// Identity returns the precomputed identity for r (zero for invalid refs).
func (c *Corpus) Identity(r Ref) certid.Identity {
	if e := c.Entry(r); e != nil {
		return e.Identity
	}
	return certid.Identity{}
}

// SHA1 returns the precomputed hex SHA-1 fingerprint for r ("" for
// invalid refs).
func (c *Corpus) SHA1(r Ref) string {
	if e := c.Entry(r); e != nil {
		return e.SHA1
	}
	return ""
}

// DER returns the corpus-owned encoding for r (nil for invalid refs).
// Callers must not modify it.
func (c *Corpus) DER(r Ref) []byte {
	if e := c.Entry(r); e != nil {
		return e.DER
	}
	return nil
}

// Certs materializes the parsed certificates for refs, preserving order.
func (c *Corpus) Certs(refs []Ref) []*x509.Certificate {
	out := make([]*x509.Certificate, len(refs))
	for i, r := range refs {
		out[i] = c.Cert(r)
	}
	return out
}

// Len returns the number of distinct certificates interned.
func (c *Corpus) Len() int { return len(c.view.Load().entries) }

// Stats is a point-in-time interning tally.
type Stats struct {
	// Interned is the number of distinct certificates in the table.
	Interned int64
	// Hits counts intern calls answered without parsing (pointer or
	// content match).
	Hits int64
	// Bytes is the total DER bytes owned by the table.
	Bytes int64
	// SignatureChecks counts signature verifications CheckSignature ran;
	// checks answered from its memo are not counted.
	SignatureChecks int64
}

// Stats returns the cumulative tallies.
func (c *Corpus) Stats() Stats {
	return Stats{
		Interned:        c.nInterned.Load(),
		Hits:            c.nHits.Load(),
		Bytes:           c.nBytes.Load(),
		SignatureChecks: c.nSigChecks.Load(),
	}
}

// edge is one signature check: child's signature under parent's key.
type edge struct{ child, parent Ref }

// CheckSignature reports whether parent's key verifies child's signature
// (x509.Certificate.CheckSignatureFrom, including its checks that parent
// may sign certificates). The outcome depends only on the two
// certificates' bytes, and refs are content addresses, so it is memoized
// here by ref pair rather than in any verifier: every verifier over this
// corpus, whatever its trusted roots, checks a given edge once; a
// chain.Verifier asks only about edges that can reach one of its roots.
// Both outcomes are memoized, so a failed check stays failed. Expiry,
// trust and path constraints are not part of the outcome; callers judge
// them. The memo holds one entry per distinct edge checked, for the
// corpus's lifetime. Invalid refs report false.
func (c *Corpus) CheckSignature(child, parent Ref) bool {
	k := edge{child, parent}
	c.sigMu.Lock()
	ok, hit := c.sigs[k]
	c.sigMu.Unlock()
	if hit {
		return ok
	}
	ce, pe := c.Entry(child), c.Entry(parent)
	if ce == nil || pe == nil {
		return false
	}
	ok = ce.Cert.CheckSignatureFrom(pe.Cert) == nil
	c.nSigChecks.Add(1)
	c.sigMu.Lock()
	c.sigs[k] = ok
	c.sigMu.Unlock()
	return ok
}

const pemCertType = "CERTIFICATE"

// ParsePEM interns every CERTIFICATE block in data, in order. Non-certificate
// blocks are skipped; a block that fails to parse is an error.
func (c *Corpus) ParsePEM(data []byte) ([]Ref, error) {
	var refs []Ref
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		if block.Type != pemCertType {
			continue
		}
		ref, err := c.Intern(block.Bytes)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// Intern interns der into the shared corpus.
func Intern(der []byte) (Ref, error) { return shared.Intern(der) }

// InternCert interns an already-parsed certificate into the shared corpus.
func InternCert(cert *x509.Certificate) Ref { return shared.InternCert(cert) }

// ParsePEM interns a PEM bundle into the shared corpus.
func ParsePEM(data []byte) ([]Ref, error) { return shared.ParsePEM(data) }

// CertOf returns the shared-corpus certificate for r.
func CertOf(r Ref) *x509.Certificate { return shared.Cert(r) }

// IdentityOf returns cert's identity through the shared corpus — the
// memoized replacement for certid.IdentityOf on hot paths: the identity is
// computed once when the certificate is first interned and every later
// call is a map hit.
func IdentityOf(cert *x509.Certificate) certid.Identity {
	return shared.Identity(shared.InternCert(cert))
}
