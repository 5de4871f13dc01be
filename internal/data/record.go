package data

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Schema is an ordered list of reference attribute names describing the
// layout of a Record. Per the paper's naming principle (§3.1), attribute
// names in a schema are *reference* names: synonyms denote the same
// real-world entity and distinct names denote distinct entities.
type Schema []string

// Index returns the position of attribute name in the schema, or -1.
func (s Schema) Index(name string) int {
	for i, a := range s {
		if a == name {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains the attribute.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// HasAll reports whether every attribute of sub appears in s.
func (s Schema) HasAll(sub Schema) bool {
	for _, a := range sub {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// Equal reports whether two schemas have the same attributes in the same
// order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// SameSet reports whether two schemas contain the same attributes,
// regardless of order.
func (s Schema) SameSet(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	return s.HasAll(o) && o.HasAll(s)
}

// Clone returns an independent copy of the schema.
func (s Schema) Clone() Schema {
	if s == nil {
		return nil
	}
	c := make(Schema, len(s))
	copy(c, s)
	return c
}

// Minus returns the attributes of s that do not appear in o, preserving
// order.
func (s Schema) Minus(o Schema) Schema {
	var out Schema
	for _, a := range s {
		if !o.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Union returns s followed by the attributes of o not already present.
func (s Schema) Union(o Schema) Schema {
	out := s.Clone()
	for _, a := range o {
		if !out.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Intersect returns the attributes of s that also appear in o, in s's order.
func (s Schema) Intersect(o Schema) Schema {
	var out Schema
	for _, a := range s {
		if o.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// String renders the schema as a comma-separated attribute list.
func (s Schema) String() string { return strings.Join(s, ",") }

// Record is one row of data laid out according to some Schema. A Record and
// its Schema travel separately: activities know their schemas statically,
// so rows carry no per-row metadata.
type Record []Value

// Clone returns an independent copy of the record.
func (r Record) Clone() Record {
	c := make(Record, len(r))
	copy(c, r)
	return c
}

// Key returns a canonical string key identifying the record's contents:
// the values' Key strings joined by "\x1f". It serves multiset comparison
// in the equivalence and property suites and is the independent statement
// HashKey/KeyEqual are tested against; the engine does not key on it. The
// string form cannot tell ("a\x1fs:b", "c") from ("a", "b\x1fs:c");
// KeyEqual, comparing column by column, can.
func (r Record) Key() string {
	size := len(r)
	for i := range r {
		if r[i].kind() == KindString {
			size += 2 + int(r[i].n)
		} else {
			size += 2 + 24 // the longest 'g' float or decimal int64
		}
	}
	var b strings.Builder
	b.Grow(size)
	var num [32]byte
	for i := range r {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		switch v := &r[i]; v.kind() {
		case KindNull:
			b.WriteByte(0)
		case KindInt, KindFloat:
			b.WriteString("n:")
			b.Write(strconv.AppendFloat(num[:0], v.Float(), 'g', -1, 64))
		case KindString:
			b.WriteString("s:")
			b.WriteString(v.str())
		case KindBool:
			b.WriteString("b:")
			b.Write(strconv.AppendInt(num[:0], v.n, 10))
		case KindDate:
			b.WriteString("d:")
			b.Write(strconv.AppendInt(num[:0], v.n, 10))
		default:
			b.WriteByte('?')
		}
	}
	return b.String()
}

// String renders the record for diagnostics.
func (r Record) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Project builds a new record holding, for each attribute of target, the
// value of the equally named attribute under src. Attributes missing from
// src become NULL.
func (r Record) Project(src, target Schema) Record {
	out := make(Record, len(target))
	for i, a := range target {
		if j := src.Index(a); j >= 0 && j < len(r) {
			out[i] = r[j]
		} else {
			out[i] = Null
		}
	}
	return out
}

// Projection is Record.Project with the attribute names resolved once: for
// each attribute of the target schema, the position of the equally named
// attribute in the source schema, or -1. An operator that re-lays every
// row of a node builds one Projection and applies it per row.
type Projection []int

// NewProjection resolves target's attributes against src.
func NewProjection(src, target Schema) Projection {
	p := make(Projection, len(target))
	for i, a := range target {
		p[i] = src.Index(a)
	}
	return p
}

// Apply builds the projected record; positions the source schema lacks, or
// that lie beyond the end of a short record, become NULL.
func (p Projection) Apply(r Record) Record {
	out := make(Record, len(p))
	p.ApplyInto(out, r)
	return out
}

// ApplyInto is Apply into a caller-owned destination of len(p) values. It
// writes every position, NULLs included, so dst may hold a previous row
// (the engine's reused batch scratch); dst must not alias r.
func (p Projection) ApplyInto(dst, r Record) {
	for i, j := range p {
		if j >= 0 && j < len(r) {
			dst[i] = r[j]
		} else {
			dst[i] = Null
		}
	}
}

// Rows is a slice of records with multiset-comparison helpers.
type Rows []Record

// Clone deep-copies the row set.
func (rs Rows) Clone() Rows {
	out := make(Rows, len(rs))
	for i, r := range rs {
		out[i] = r.Clone()
	}
	return out
}

// KeyCounts returns the multiset of record keys.
func (rs Rows) KeyCounts() map[string]int {
	m := make(map[string]int, len(rs))
	for _, r := range rs {
		m[r.Key()]++
	}
	return m
}

// EqualMultiset reports whether two row sets contain the same records with
// the same multiplicities, regardless of order. This is the paper's
// empirical notion of equivalent workflows: "based on the same input,
// produce the same output".
func (rs Rows) EqualMultiset(o Rows) bool {
	if len(rs) != len(o) {
		return false
	}
	a := rs.KeyCounts()
	for _, r := range o {
		k := r.Key()
		a[k]--
		if a[k] == 0 {
			delete(a, k)
		}
	}
	return len(a) == 0
}

// SplitRoundRobin deals the rows into n partitions: row i goes to
// partition i mod n. Each partition preserves the relative order of its
// rows, so interleaving the partitions back (InterleaveRoundRobin)
// reproduces the original slice. Records are shared, not copied. n < 1 is
// treated as 1.
func (rs Rows) SplitRoundRobin(n int) []Rows {
	if n < 1 {
		n = 1
	}
	parts := make([]Rows, n)
	if len(rs) == 0 {
		return parts
	}
	per := len(rs)/n + 1
	for p := range parts {
		parts[p] = make(Rows, 0, per)
	}
	for i, r := range rs {
		parts[i%n] = append(parts[i%n], r)
	}
	return parts
}

// InterleaveRoundRobin is the inverse of SplitRoundRobin: it reassembles
// partitions produced by a round-robin deal into the original row order.
// It must only be used on partitions that still hold a round-robin layout
// (no rows dropped); partitions that filtered rows need an order tag to
// merge deterministically.
func InterleaveRoundRobin(parts []Rows) Rows {
	n := len(parts)
	if n == 0 {
		return nil
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make(Rows, 0, total)
	for i := 0; ; i++ {
		advanced := false
		for p := 0; p < n; p++ {
			if i < len(parts[p]) {
				out = append(out, parts[p][i])
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	return out
}

// DiffMultiset returns human-readable descriptions of records whose
// multiplicities differ between rs and o, capped at limit entries.
// It returns nil when the multisets are equal.
func (rs Rows) DiffMultiset(o Rows, limit int) []string {
	a := rs.KeyCounts()
	b := o.KeyCounts()
	var diffs []string
	keys := make([]string, 0, len(a)+len(b))
	seen := map[string]bool{}
	for k := range a {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range b {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("key %q: left ×%d, right ×%d", k, a[k], b[k]))
			if len(diffs) >= limit {
				break
			}
		}
	}
	return diffs
}
