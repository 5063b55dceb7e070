// Package corpus is the fixture stand-in for the real interning corpus:
// dense Ref handles issued per corpus. refscope exempts this package — it
// is the issuing table every other package is held against.
package corpus

// Ref is a dense handle into one corpus's entry table. It is only
// meaningful against the corpus that issued it.
type Ref uint32

// IdentityRef is a dense handle to one distinct identity in one corpus.
// Like a Ref it is only meaningful against the corpus that issued it.
type IdentityRef uint32

// Corpus interns DER bytes and hands out Refs.
type Corpus struct {
	ders  [][]byte
	index map[string]Ref
}

// New returns an empty corpus.
func New() *Corpus {
	return &Corpus{index: make(map[string]Ref)}
}

// Intern stores der once and returns its Ref.
func (c *Corpus) Intern(der []byte) Ref {
	if r, ok := c.index[string(der)]; ok {
		return r
	}
	r := Ref(len(c.ders))
	c.ders = append(c.ders, der)
	c.index[string(der)] = r
	return r
}

// InternChain interns every element of a chain.
func (c *Corpus) InternChain(ders [][]byte) []Ref {
	refs := make([]Ref, len(ders))
	for i, der := range ders {
		refs[i] = c.Intern(der)
	}
	return refs
}

// DER returns the interned bytes for r.
func (c *Corpus) DER(r Ref) []byte {
	return c.ders[r]
}

// Identity renders a stable identity string for r.
func (c *Corpus) Identity(r Ref) string {
	return string(c.ders[r])
}

// IdentityRefOf returns the identity handle of r.
func (c *Corpus) IdentityRefOf(r Ref) IdentityRef {
	return IdentityRef(r + 1)
}

// LookupIdentity returns the handle of an identity, or zero.
func (c *Corpus) LookupIdentity(id string) IdentityRef {
	if r, ok := c.index[id]; ok {
		return IdentityRef(r + 1)
	}
	return 0
}

// IdentityEntry returns the bytes of the first entry with identity h.
func (c *Corpus) IdentityEntry(h IdentityRef) []byte {
	return c.ders[h-1]
}
