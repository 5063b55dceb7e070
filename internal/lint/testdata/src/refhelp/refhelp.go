// Package refhelp holds the cross-package helpers the refscope fixtures
// launder Refs through: the facts engine must see that Pick returns a Ref
// owned by its corpus parameter and that Dump consumes a Ref against its
// corpus parameter, or the violations in package refscope are invisible.
package refhelp

import "sandbox/corpus"

// Pick interns der and returns the Ref — owned by c.
func Pick(c *corpus.Corpus, der []byte) corpus.Ref {
	return c.Intern(der)
}

// Dump resolves r against c.
func Dump(c *corpus.Corpus, r corpus.Ref) []byte {
	return c.DER(r)
}

// Label composes through another helper: still c's Ref.
func Label(c *corpus.Corpus, r corpus.Ref) string {
	return string(Dump(c, r))
}

// Handle looks an identity up in c — the handle is owned by c.
func Handle(c *corpus.Corpus, id string) corpus.IdentityRef {
	return c.LookupIdentity(id)
}

// First resolves identity handle h against c.
func First(c *corpus.Corpus, h corpus.IdentityRef) []byte {
	return c.IdentityEntry(h)
}
