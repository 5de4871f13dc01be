// Package data provides the record-level substrate of the ETL system:
// typed scalar values, records, record schemas and recordsets (in-memory
// tables and CSV-backed record files).
//
// The paper (§2.1) defines a recordset as "any data store that can provide a
// flat record schema"; the two concrete kinds implemented here are the two
// the paper names as most popular: relational tables (MemoryRecordset) and
// record files (FileRecordset).
package data

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the scalar types a Value can hold. The zero Kind is
// KindNull, so the zero Value is a typed SQL-style NULL.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding one scalar datum flowing through
// an ETL workflow. Values are immutable by convention: activities construct
// new Values rather than mutating ones they received.
//
// A Value is two words, 16 bytes, so an 8-column record is 128; records are
// most of what the engine allocates. The pointer word p decides the kind:
//
//	p == nil            NULL (the zero Value)
//	p == &kindTags[k]   kind k (Int, Float, Bool, Date, or the empty String),
//	                    its payload in n: the integer, a float's IEEE 754
//	                    bits, 0 or 1, days since the Unix epoch; 0 for ""
//	any other p         a non-empty String of n bytes starting at p
//
// Each datum has one representation: an empty string is always tagged, never
// its data pointer, which may be nil or point into a text it would keep
// alive. The pointer keeps a string's bytes alive as a string header would;
// a tag points outside the heap, so the collector looks it up and discards it.
// The zero-length func array makes Value non-comparable: == would compare
// two strings' addresses, not their bytes. Use Equal, Compare or KeyEqual.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n int64
}

// kindTags gives each non-NULL kind an address of its own.
var kindTags [KindDate + 1]byte

// kind classifies v by its pointer word.
func (v Value) kind() Kind {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&kindTags)); d < uintptr(len(kindTags)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindNull
	}
	return KindString
}

// str is the bytes of a value kind reports as KindString.
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.n) }

func tagged(k Kind, n int64) Value { return Value{p: unsafe.Pointer(&kindTags[k]), n: n} }

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return tagged(KindInt, v) }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return tagged(KindFloat, int64(math.Float64bits(v))) }

// NewString returns a string value.
func NewString(v string) Value {
	if v == "" {
		return tagged(KindString, 0)
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: int64(len(v))}
}

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return tagged(KindBool, i)
}

// NewDate returns a date value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return tagged(KindDate, t.Unix()/86400)
}

// NewDateFromDays returns a date value holding the given count of days since
// the Unix epoch.
func NewDateFromDays(days int64) Value { return tagged(KindDate, days) }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind() }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// Int returns the integer payload. It is valid only for KindInt values;
// for other kinds it returns a best-effort coercion (0 for non-numerics).
func (v Value) Int() int64 {
	switch v.kind() {
	case KindInt, KindBool, KindDate:
		return v.n
	case KindFloat:
		return int64(v.Float())
	default:
		return 0
	}
}

// Float returns the value as a float64, coercing integers.
func (v Value) Float() float64 {
	switch v.kind() {
	case KindFloat:
		return math.Float64frombits(uint64(v.n))
	case KindInt, KindBool, KindDate:
		return float64(v.n)
	default:
		return 0
	}
}

// Str returns the string payload for KindString values and a formatted
// rendering for every other kind.
func (v Value) Str() string {
	if v.kind() == KindString {
		return v.str()
	}
	return v.String()
}

// Bool returns the boolean payload; non-bool kinds report false except
// non-zero numerics, which report true.
func (v Value) Bool() bool {
	switch v.kind() {
	case KindBool, KindInt:
		return v.n != 0
	case KindFloat:
		return v.Float() != 0
	default:
		return false
	}
}

// Days returns the date payload in days since the Unix epoch. It reads the
// payload word of any kind but a string, whose word is its length, and is
// meaningful for dates only.
func (v Value) Days() int64 {
	if v.kind() == KindString {
		return 0
	}
	return v.n
}

// Time returns the date payload as a UTC time.Time at midnight.
func (v Value) Time() time.Time {
	return time.Unix(v.Days()*86400, 0).UTC()
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return numeric(v.kind()) }

func numeric(k Kind) bool { return k == KindInt || k == KindFloat }

// String renders the value for display and for CSV serialization.
func (v Value) String() string {
	switch v.kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return "?"
	}
}

// Equal reports deep equality of two values. NULL equals only NULL
// (this is identity-based equality for grouping and set operations, not
// SQL ternary comparison; predicates handle NULL separately).
func (v Value) Equal(o Value) bool {
	vk, ok := v.kind(), o.kind()
	if vk != ok {
		// Allow int/float cross-kind numeric equality so that, e.g., an
		// aggregation producing floats compares equal to integer input.
		if numeric(vk) && numeric(ok) {
			return v.Float() == o.Float()
		}
		return false
	}
	switch vk {
	case KindNull:
		return true
	case KindFloat:
		a, b := v.Float(), o.Float()
		return a == b || (a != a && b != b) // all NaNs are equal
	case KindString:
		return v.str() == o.str()
	default:
		return v.n == o.n
	}
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before every non-NULL value. Cross-kind numeric comparison
// coerces to float64; otherwise kinds are ordered by their Kind tag.
func (v Value) Compare(o Value) int {
	vk, ok := v.kind(), o.kind()
	if vk == KindNull || ok == KindNull {
		switch {
		case vk == ok:
			return 0
		case vk == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numeric(vk) && numeric(ok) {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if vk != ok {
		switch {
		case vk < ok:
			return -1
		default:
			return 1
		}
	}
	switch vk {
	case KindString:
		return strings.Compare(v.str(), o.str())
	case KindBool, KindDate:
		switch {
		case v.n < o.n:
			return -1
		case v.n > o.n:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Key returns the value's canonical key string: a class tag ("\x00" for
// NULL, "n:", "s:", "b:", "d:") and the payload, numbers as the shortest
// rendering of Float(). Its equivalence classes — close to Equal, but
// transitive — are the ones HashKey and KeyEqual implement (see key.go).
func (v Value) Key() string { return Record{v}.Key() }

// Byte classes of the three literal grammars ParseValue recognises beyond
// the keywords: base-10 integers, strconv.ParseFloat's floats (decimal,
// hex, "inf"/"infinity"/"nan" in any case) and ISO dates.
const (
	numBody  uint8 = 1 << iota // may appear somewhere in such a literal
	numFirst                   // may be its first byte
	numDigit                   // 0-9
)

var numClass = func() (t [256]uint8) {
	for _, c := range "+-._abcdefinptxyABCDEFINPTXY" {
		t[c] = numBody
	}
	for _, c := range "+-.inIN" {
		t[c] |= numFirst
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = numBody | numFirst | numDigit
	}
	return t
}()

// pow10 holds the powers of ten a plain decimal of up to 15 digits divides by.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// ParseValue parses s into the most specific kind it matches: empty string
// and "NULL" parse as NULL, then bool, int, float, ISO date, else string.
//
// A parser that rejects its input allocates an error holding a copy of it,
// so one pass over the bytes first rules out what cannot succeed: a field
// with a byte outside the literals' alphabet is a string, ParseInt sees
// only [+-]?[0-9]+, and the dddd-dd-dd shape, which no float has, skips
// ParseFloat. The same pass converts a plain number — a sign, up to 15
// digits, at most one point, k digits behind it: the digits are an integer
// m < 2⁵³ and ±m / 10^k is one correctly rounded division of two exact
// floats, which is what strconv computes for it (Clinger). Every other
// field takes the full int, float, date sequence.
func ParseValue(s string) Value {
	switch s {
	case "", "NULL", "null":
		return Null
	case "true":
		return NewBool(true)
	case "false":
		return NewBool(false)
	}
	if numClass[s[0]]&numFirst == 0 {
		return NewString(s)
	}
	var m int64
	digits, points, frac := 0, 0, 0
	for i := 0; i < len(s); i++ {
		c := numClass[s[i]]
		if c&numBody == 0 {
			return NewString(s)
		}
		if c&numDigit != 0 {
			digits++
			frac += points
			m = m*10 + int64(s[i]-'0') // wraps past 18 digits, where it is not used
		} else if s[i] == '.' {
			points++
		}
	}
	unsigned := len(s)
	if s[0] == '+' || s[0] == '-' {
		unsigned--
	}
	if digits+points == unsigned && points <= 1 && 0 < digits && digits <= 15 {
		f := float64(m) / pow10[frac]
		if s[0] == '-' {
			m, f = -m, -f
		}
		if points == 0 {
			return NewInt(m)
		}
		return NewFloat(f)
	}
	if digits == unsigned && digits > 0 {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return NewInt(i)
		}
	}
	if isoShape := len(s) == 10 && digits == 8 && s[4] == '-' && s[7] == '-'; !isoShape {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return NewFloat(f)
		}
	}
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return NewDateFromDays(t.Unix() / 86400)
	}
	return NewString(s)
}
