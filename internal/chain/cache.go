package chain

import (
	"container/list"
	"crypto/x509"
	"sync"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/obs"
)

// DefaultCacheCapacity bounds a Cache constructed with a non-positive
// capacity. The Notary's bulk validation touches one entry per unexpired
// leaf and root union, so 16k entries hold a bench-scale pass. A
// paper-scale pass (about 18.4k unexpired leaves, two unions) exceeds
// it; there the corpus's signature memo saves the repeated work instead.
const DefaultCacheCapacity = 1 << 14

// cacheKey identifies one validation outcome: the verifier's pool
// fingerprint plus the leaf's corpus handle. A Ref is content-addressed —
// the paper's §4.1 "certificate signature" identity — because the set of
// reachable roots depends on the leaf's bytes (its signature), not merely
// on its subject and key. Keying by handle instead of a hex fingerprint
// makes a lookup hash a string plus a uint32 with no per-lookup hashing of
// the certificate itself; the pool key embeds the corpus ID, so refs from
// different corpora cannot collide under one pool.
type cacheKey struct {
	pool string
	leaf corpus.Ref
}

// cacheEntry is one memoized outcome in the LRU list.
type cacheEntry struct {
	key   cacheKey
	roots []certid.Identity
}

// Cache memoizes chain-validation outcomes across Verifier instances: the
// distinct trusted roots a leaf can reach within a given pool. Thousands
// of handsets share identical stores and the Notary revalidates the same
// leaves against the same pool union on every analysis pass, so the
// expensive path building (one signature verification per issuer edge)
// collapses into map hits.
//
// The cache is LRU-bounded and safe for concurrent use. Hit/miss/eviction
// counts are exposed via Stats and, when an observer is attached, the
// chain.cache.* counters. A nil *Cache is a valid no-op: Lookup always
// misses and Store discards, so callers thread an optional cache without
// branching.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[cacheKey]*list.Element
	hits    *obs.Counter
	misses  *obs.Counter
	evicts  *obs.Counter
	nHits   int64
	nMisses int64
	nEvicts int64
}

// CacheOption configures a Cache.
type CacheOption func(*Cache)

// WithCacheObserver attaches hit/miss/eviction counters to the given
// observer (nil observers no-op).
func WithCacheObserver(o *obs.Observer) CacheOption {
	return func(c *Cache) {
		c.hits = o.Counter(KeyCacheHits)
		c.misses = o.Counter(KeyCacheMisses)
		c.evicts = o.Counter(KeyCacheEvictions)
	}
}

// NewCache returns an empty LRU cache bounded to capacity entries.
// Capacities < 1 mean DefaultCacheCapacity.
func NewCache(capacity int, opts ...CacheOption) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	c := &Cache{cap: capacity, ll: list.New(), items: make(map[cacheKey]*list.Element)}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Lookup returns the memoized validating-root identities for (poolKey,
// leaf) and whether the entry was present. The returned slice is shared:
// callers must not mutate it.
func (c *Cache) Lookup(poolKey string, leaf corpus.Ref) ([]certid.Identity, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cacheKey{poolKey, leaf}]
	if !ok {
		c.nMisses++
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.nHits++
	c.hits.Inc()
	return el.Value.(*cacheEntry).roots, true
}

// Store memoizes the validating-root identities for (poolKey, leaf),
// evicting the least recently used entry when the bound is hit. The slice
// is retained as-is: callers must not mutate it afterwards.
func (c *Cache) Store(poolKey string, leaf corpus.Ref, roots []certid.Identity) {
	if c == nil {
		return
	}
	k := cacheKey{poolKey, leaf}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).roots = roots
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, roots: roots})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.nEvicts++
		c.evicts.Inc()
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the LRU bound.
func (c *Cache) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// CacheStats is a point-in-time hit/miss/eviction tally.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cumulative lookup tallies.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.nHits, Misses: c.nMisses, Evictions: c.nEvicts}
}

// ValidatingRoots answers v.ValidatingRootIdentities(cert) through the
// cache: a hit skips path building entirely, a miss computes and
// memoizes under (v.PoolKey(), leaf handle). A nil Cache computes
// directly. Cached and uncached answers are identical — the invariant the
// cache tests pin across seeds.
func (c *Cache) ValidatingRoots(v *Verifier, cert *x509.Certificate) []certid.Identity {
	return c.ValidatingRootsRef(v, v.Corpus().InternCert(cert))
}

// ValidatingRootsRef is ValidatingRoots for an already-interned leaf. The
// ref must be a handle in v's corpus.
func (c *Cache) ValidatingRootsRef(v *Verifier, leaf corpus.Ref) []certid.Identity {
	if c == nil {
		return v.ValidatingRootIdentitiesRef(leaf)
	}
	pool := v.PoolKey()
	if ids, ok := c.Lookup(pool, leaf); ok {
		return ids
	}
	ids := v.ValidatingRootIdentitiesRef(leaf)
	c.Store(pool, leaf, ids)
	return ids
}
