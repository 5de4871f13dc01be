package workflow

import (
	"math"
	"strings"
)

// sigBoundary reports whether c delimits signature tokens: the chain dot,
// group parentheses, the branch separator `//` and the multi-target /
// factorize-tag joiner `&`. A segment occurrence aligned on boundaries is
// a whole run of node tags, never a substring of a longer tag.
func sigBoundary(c byte) bool {
	return c == '.' || c == '(' || c == ')' || c == '/' || c == '&'
}

func boundaryBefore(s string, i int) bool { return i == 0 || sigBoundary(s[i-1]) }
func boundaryAfter(s string, i int) bool  { return i == len(s) || sigBoundary(s[i]) }

// SpliceSignature derives the signature of a rewritten graph from its
// parent's signature by replacing the rewrite's local segment oldSeg (a
// dot-joined run of activity tags, e.g. "3.4" for a swap of tags 3 and 4)
// with newSeg — O(|sig|) instead of re-rendering the whole graph. It is
// LocateSplice followed by one Splice; a caller with many rewrites of one
// chain locates once and splices each.
//
// The result is guaranteed equal to the full Graph.Signature() of the
// child only when the replacement provably cannot disturb the rendering
// around it, so both steps are conservative and report ok=false whenever
// any of these holds, and the caller re-renders from scratch:
//
//   - singleChain is false: the graph has multiple target chains, and a
//     depth-0 `&` is ambiguous between the sorted chain joiner and a
//     factorize tag, so sorted-order preservation cannot be verified
//     locally;
//   - oldSeg does not occur, or occurs more than once, boundary-aligned;
//   - the rewritten branch would change its sorted position inside any
//     enclosing `(a//b)` parallel group (branch lists are sorted when
//     rendered, so the splice must keep each enclosing sibling between
//     its neighbors).
func SpliceSignature(sig, oldSeg, newSeg string, singleChain bool) (string, bool) {
	site, ok := LocateSplice(sig, oldSeg, singleChain)
	if !ok {
		return "", false
	}
	return site.Splice(sig, oldSeg, newSeg)
}

// SpliceSite is one maximal run of dot-joined tags in a signature — one
// chain's rendering, free of groupSyntax — with what the text around it
// demands of its content. The states of one local group's search differ
// inside that run only, so LocateSplice walks the enclosing parallel
// groups once and each Splice checks the new content against bounds.
type SpliceSite struct {
	sig    string // the signature the run was located in
	lo, hi int    // sig[lo:hi] is the run
	bounds []spliceBound
}

// spliceBound is a sorted neighbor of the sibling that holds the run, at
// one enclosing level, that begins with the sibling's text before the run.
// The rest of each then decides their order: what the signature holds from
// the run's start to tail bytes before its end may not sort below rest (a
// left neighbor) or above it (a right one).
type spliceBound struct {
	tail int
	rest string
	left bool
}

const groupSyntax = "()/"

// LocateSplice finds the run of sig that holds the one boundary-aligned
// occurrence of seg and walks outward through the enclosing parenthesized
// groups, recording at each level the neighbors the run's sibling must
// stay between. Tags never contain parentheses or slashes, so paren
// matching and depth-0 "//" splitting are unambiguous.
func LocateSplice(sig, seg string, singleChain bool) (site SpliceSite, ok bool) {
	p := uniqueAligned(sig, seg)
	if !singleChain || p < 0 {
		return site, false
	}
	site = SpliceSite{sig: sig, lo: strings.LastIndexAny(sig[:p], groupSyntax) + 1, hi: len(sig)}
	if i := strings.IndexAny(sig[p:], groupSyntax); i >= 0 {
		site.hi = p + i
	}
	for open := scanOut(sig, site.lo-1, -1); open >= 0; open = scanOut(sig, open-1, -1) {
		if !site.addLevel(open + 1) {
			return SpliceSite{}, false
		}
	}
	return site, true // past the top level: a single target chain has no sorted siblings
}

// Splice replaces oldSeg by newSeg in sig. ok is false when sig differs
// from the located signature outside the run (a full render moved a
// sibling: locate again), when oldSeg is not the one boundary-aligned
// occurrence in sig or lies outside the run, and when the new content
// would move a sibling past a neighbor.
func (s *SpliceSite) Splice(sig, oldSeg, newSeg string) (string, bool) {
	tail := len(s.sig) - s.hi
	if s.sig == "" || len(sig) < s.lo+tail || sig[:s.lo] != s.sig[:s.lo] || sig[len(sig)-tail:] != s.sig[s.hi:] ||
		strings.ContainsAny(sig[s.lo:len(sig)-tail], groupSyntax) {
		return "", false
	}
	p := uniqueAligned(sig, oldSeg)
	if p < s.lo || p+len(oldSeg) > len(sig)-tail {
		return "", false
	}
	out := sig[:p] + newSeg + sig[p+len(oldSeg):]
	for _, b := range s.bounds {
		if c := strings.Compare(out[s.lo:len(out)-b.tail], b.rest); c != 0 && (c < 0) == b.left {
			return "", false
		}
	}
	return out, true
}

// uniqueAligned returns the position of the one boundary-aligned
// occurrence of seg in sig, or -1 when there is none, more than one (two
// candidate sites are ambiguous), or seg is empty.
func uniqueAligned(sig, seg string) int {
	at := -1
	for from := 0; seg != "" && from <= len(sig)-len(seg); {
		p := strings.Index(sig[from:], seg)
		if p < 0 {
			break
		}
		p += from
		if boundaryBefore(sig, p) && boundaryAfter(sig, p+len(seg)) {
			if at >= 0 {
				return -1
			}
			at = p
		}
		from = p + 1
	}
	return at
}

// scanOut scans s from position i in direction step (1 or -1) and returns
// the index of the first byte outside nested groups that bounds what i
// lies in: the enclosing group's parenthesis in that direction or, going
// forward, a "//" between siblings. It returns -1 when there is none: i
// sits at the top level, or the signature is unbalanced.
func scanOut(s string, i, step int) int {
	enter, leave := byte('('), byte(')')
	if step < 0 {
		enter, leave = leave, enter
	}
	for depth := 0; i >= 0 && i < len(s); i += step {
		switch c := s[i]; {
		case c == enter:
			depth++
		case c == leave && depth > 0:
			depth--
		case c == leave, c == '/' && step > 0 && depth == 0 && strings.HasPrefix(s[i:], "//"):
			return i
		}
	}
	return -1
}

// addLevel walks the siblings of the group whose interior starts at
// sig[start] up to the one containing the run and records its neighbors.
// It reports false when the run straddles a separator there and cannot be
// local, or the located signature is not in sorted order to begin with.
func (s *SpliceSite) addLevel(start int) bool {
	left := ""
	for a := start; ; {
		j := scanOut(s.sig, a, 1)
		switch {
		case j < 0:
			return false
		case s.lo >= a && s.hi <= j:
			pre, tail := s.sig[a:s.lo], len(s.sig)-j
			if a > start && !s.addBound(pre, tail, left, true) {
				return false
			}
			if s.sig[j] == ')' {
				return true
			}
			k := scanOut(s.sig, j+2, 1)
			return k >= 0 && s.addBound(pre, tail, s.sig[j+2:k], false)
		case s.sig[j] == ')':
			return false
		}
		left, a = s.sig[a:j], j+2
	}
}

// addBound records the neighbor other of the sibling that begins with pre
// and ends tail bytes before the signature does. When other does not begin
// with pre too, pre alone places the sibling, whatever the run holds:
// nothing is recorded, and false reported if that is the wrong side.
func (s *SpliceSite) addBound(pre string, tail int, other string, left bool) bool {
	if !strings.HasPrefix(other, pre) {
		return (pre > other) == left
	}
	s.bounds = append(s.bounds, spliceBound{tail: tail, rest: other[len(pre):], left: left})
	return true
}

// Fingerprint returns a 64-bit structural hash of the graph: node IDs,
// kinds, activity tags and operations, recordset names and cardinalities,
// selectivities and the full provider lists, folded with FNV-1a in
// ascending-ID order. Unlike Signature, it distinguishes graphs whose
// signatures coincide but whose node-ID labelings differ (states reached
// through different MER/FAC lineages), which is exactly what NodeID-keyed
// costings are sensitive to. The search no longer keys anything on it (the
// transposition cache it guarded was deleted on its measured 1 % hit
// ratio); it remains as the benchmark's workflow.fingerprint_us figure.
func (g *Graph) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		if n == nil {
			continue
		}
		mix(uint64(id))
		mix(uint64(n.Kind))
		if n.Act != nil {
			str(n.Act.Tag)
			mix(uint64(n.Act.Sem.Op))
			mix(math.Float64bits(n.Act.Sel))
			for _, comp := range n.Act.Sem.Components {
				str(comp.Tag)
				mix(uint64(comp.Sem.Op))
				mix(math.Float64bits(comp.Sel))
			}
		}
		if n.RS != nil {
			str(n.RS.Name)
			mix(math.Float64bits(n.RS.Rows))
		}
		for _, p := range g.pred[id] {
			mix(uint64(p))
		}
		mix(0x9e3779b97f4a7c15)
	}
	return h
}
