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
// with newSeg — O(|sig|) instead of re-rendering the whole graph.
//
// The result is guaranteed equal to the full Graph.Signature() of the
// child only when the replacement provably cannot disturb the rendering
// around it, so SpliceSignature is conservative and reports ok=false
// whenever any of these holds, and the caller re-renders from scratch:
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
	if !singleChain || oldSeg == "" {
		return "", false
	}
	if oldSeg == newSeg {
		return sig, true
	}
	lo := -1
	for from := 0; from <= len(sig)-len(oldSeg); {
		p := strings.Index(sig[from:], oldSeg)
		if p < 0 {
			break
		}
		p += from
		if boundaryBefore(sig, p) && boundaryAfter(sig, p+len(oldSeg)) {
			if lo >= 0 {
				return "", false // ambiguous: two candidate sites
			}
			lo = p
		}
		from = p + 1
	}
	if lo < 0 {
		return "", false
	}
	hi := lo + len(oldSeg)

	// Walk outward through the enclosing parenthesized groups and check
	// that the modified branch keeps its sorted position among its `//`
	// siblings at every level. Tags never contain parentheses or slashes,
	// so paren matching and depth-0 "//" splitting are unambiguous.
	for spanLo := lo; ; {
		open := enclosingOpen(sig, spanLo)
		if open < 0 {
			break // top level: a single target chain has no sorted siblings
		}
		if !siblingOrderPreserved(sig, open+1, lo, hi, newSeg) {
			return "", false
		}
		spanLo = open
	}
	return sig[:lo] + newSeg + sig[hi:], true
}

// enclosingOpen returns the index of the '(' immediately enclosing
// position i, or -1 when i sits at the top level.
func enclosingOpen(s string, i int) int {
	depth := 0
	for j := i - 1; j >= 0; j-- {
		switch s[j] {
		case ')':
			depth++
		case '(':
			if depth == 0 {
				return j
			}
			depth--
		}
	}
	return -1
}

// siblingOrderPreserved walks the depth-0 "//"-separated siblings of the
// group whose interior starts at s[start], up to the group's closing
// parenthesis, finds the one containing the splice [lo,hi), and reports
// whether that sibling — with the splice applied — still compares between
// its left and right neighbors, i.e. whether a re-render would keep the
// branches in the same sorted order.
func siblingOrderPreserved(s string, start, lo, hi int, repl string) bool {
	var left string      // the sibling before the spliced one
	var pre, post string // the spliced sibling's text around the splice
	found := false
	depth, a := 0, start
	for j := start; j < len(s); j++ {
		last := false
		switch s[j] {
		case '(':
			depth++
			continue
		case ')':
			if depth > 0 {
				depth--
				continue
			}
			last = true // the group's own close ends its last sibling
		case '/':
			if depth > 0 || j+1 == len(s) || s[j+1] != '/' || (j > start && s[j-1] == '/') {
				continue
			}
		default:
			continue
		}
		// s[a:j] is a complete sibling.
		switch {
		case found: // the right neighbor
			return compareSpliced(pre, repl, post, s[a:j]) <= 0
		case lo >= a && hi <= j:
			found, pre, post = true, s[a:lo], s[hi:j]
			if a > start && compareSpliced(pre, repl, post, left) < 0 {
				return false
			}
		default:
			left = s[a:j]
		}
		if last {
			return found // false: the splice straddles a separator and cannot be local
		}
		a = j + 2
	}
	return false // unbalanced signature; be conservative
}

// compareSpliced compares the concatenation a+b+c with other, like
// strings.Compare, without building it.
func compareSpliced(a, b, c, other string) int {
	for _, part := range [...]string{a, b, c} {
		n := min(len(part), len(other))
		if r := strings.Compare(part[:n], other[:n]); r != 0 {
			return r
		}
		if len(part) > n {
			return 1
		}
		other = other[n:]
	}
	if len(other) > 0 {
		return -1
	}
	return 0
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
