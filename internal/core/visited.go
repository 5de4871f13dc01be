package core

import (
	"hash/maphash"
	"sync"
)

// visitedStripes is the number of independently locked shards of the
// visited set. 64 stripes keep contention negligible for any realistic
// worker count while the per-stripe maps stay dense.
const visitedStripes = 64

// visitedSet is the signature-keyed duplicate-state detector of §4.1 and
// the search's signature interning table in one: a map from signature to
// its canonical instance and whether the search has admitted it, sharded
// across mutex-striped maps so concurrent workers can consult it without
// serializing on one lock. Workers intern the signatures they render; the
// admitting write path (Add) stays on the single search goroutine, which
// is what keeps admission — and therefore the search result —
// deterministic regardless of worker count. A signature is hashed once
// per call; its stripe depends on the process's hash seed and on nothing
// the search can observe.
//
// Every signature entering the search (spliced or fully rendered) is
// first canonicalized through Intern, so the strings stored here, carried
// by states, compared by the heap tie-break and recorded in traces are the
// same instances. Map probes on interned keys then short-circuit on
// pointer equality inside the runtime's string comparison instead of
// walking the bytes of two equal signatures.
type visitedSet struct {
	seed    maphash.Seed
	stripes [visitedStripes]visitedStripe
}

type visitedStripe struct {
	mu sync.RWMutex
	m  map[string]visitedEntry
}

type visitedEntry struct {
	sig      string // the canonical instance of the key
	admitted bool
}

func newVisitedSet() *visitedSet {
	v := &visitedSet{seed: maphash.MakeSeed()}
	for i := range v.stripes {
		v.stripes[i].m = make(map[string]visitedEntry)
	}
	return v
}

func (v *visitedSet) stripe(sig string) *visitedStripe {
	return &v.stripes[maphash.String(v.seed, sig)%visitedStripes]
}

// Intern returns the canonical instance of sig, registering sig itself on
// first sight. Safe for concurrent use; the read path takes only an
// RLock, so workers interning mostly-known signatures do not serialize.
func (v *visitedSet) Intern(sig string) string {
	s := v.stripe(sig)
	s.mu.RLock()
	e, ok := s.m[sig]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if e, ok = s.m[sig]; !ok {
			e.sig = sig
			s.m[sig] = e
		}
		s.mu.Unlock()
	}
	return e.sig
}

// InternBytes is Intern for a buffer: it makes a string only for a new one.
func (v *visitedSet) InternBytes(sig []byte) string {
	s := &v.stripes[maphash.Bytes(v.seed, sig)%visitedStripes]
	s.mu.RLock()
	e, ok := s.m[string(sig)]
	s.mu.RUnlock()
	if ok {
		return e.sig
	}
	return v.Intern(string(sig))
}

// Add admits the signature, reporting true when it was not yet admitted.
func (v *visitedSet) Add(sig string) bool {
	s := v.stripe(sig)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[sig]
	if e.admitted {
		return false
	}
	if !ok {
		e.sig = sig
	}
	e.admitted = true
	s.m[e.sig] = e
	return true
}
