package data

import (
	"strconv"
	"strings"
	"unsafe"
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

// Key returns a string naming the record's contents: per value a class
// tag and the payload, numbers as the shortest rendering of Float(),
// joined by "\x1f". Its classes are not the key classes (KeyEqual): it
// puts 2⁵³ with 2⁵³+1, tells -0 from +0, and the joined form cannot tell
// ("a\x1fs:b", "c") from ("a", "b\x1fs:c"). Nothing compares by it; it
// stays while the benchmark times it, until ROADMAP 7a removes it.
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

// Chunks hands out records cut from []Value chunks of at most 32 KB, the
// largest size class of Go's small objects: one allocation for many rows.
// Each record has cap == len, so an append to one never reaches its
// neighbour. A record pins its whole chunk, as a string pins its file's
// text: what keeps a few rows of many for long copies them (Rows.Clone).
type Chunks struct {
	free []Value
	left int // records still to come, when known; else whole chunks
}

// NewChunks returns Chunks for n records, the last chunk sized to fit.
func NewChunks(n int) Chunks { return Chunks{left: n} }

// Expect tells c that at most n more records are to come, what is free cut
// first: the chunk for the last of them is sized to fit.
func (c *Chunks) Expect(n int) { c.left = n }

// Record returns a record of width NULLs.
func (c *Chunks) Record(width int) Record {
	if len(c.free) < width {
		k := max(1, 32<<10/int(unsafe.Sizeof(Value{}))/width)
		if c.left > 0 {
			k = min(k, c.left)
		}
		c.free = make([]Value, k*width)
	}
	rec := c.free[:width:width]
	c.free, c.left = c.free[width:], c.left-1
	return rec
}

// String renders the record for diagnostics.
func (r Record) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Projection re-lays records from a source schema to a target one: for
// each attribute of the target, the position of the equally named
// attribute in the source, or -1. An operator that re-lays every row of a
// node resolves one Projection and applies it per row.
type Projection []int

// NewProjection resolves target's attributes against src.
func NewProjection(src, target Schema) Projection {
	p := make(Projection, len(target))
	for i, a := range target {
		p[i] = src.Index(a)
	}
	return p
}

// Cut returns the projection of r, a record cut from c: NULL where the
// source schema lacks the attribute or r is too short.
func (p Projection) Cut(c *Chunks, r Record) Record {
	rec := c.Record(len(p))
	for i, j := range p {
		if j >= 0 && j < len(r) {
			rec[i] = r[j]
		}
	}
	return rec
}

// Rows is a slice of records.
type Rows []Record

// Clone deep-copies the row set into chunks of its own.
func (rs Rows) Clone() Rows {
	out, c := make(Rows, len(rs)), NewChunks(len(rs))
	for i, r := range rs {
		out[i] = append(c.Record(len(r))[:0], r...)
	}
	return out
}

// SplitRoundRobin deals the rows into n partitions: row i goes to
// partition i mod n, and each partition preserves the relative order of
// its rows. Records are shared, not copied. n < 1 is treated as 1.
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
