package data

import (
	"cmp"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refValue is the 32-byte layout Value had before its string bytes and its
// kind shared one word: a kind tag, a payload word (ints, bools, dates, a
// float's bits) and a string header, with each accessor as it read them,
// and the order on values computed exactly. FuzzValueModel holds Value to
// it.
type refValue struct {
	kind Kind
	i    int64
	s    string
}

func (v refValue) Int() int64 {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return v.i
	case KindFloat:
		return int64(v.Float())
	default:
		return 0
	}
}

func (v refValue) Float() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(uint64(v.i))
	case KindInt, KindBool, KindDate:
		return float64(v.i)
	default:
		return 0
	}
}

func (v refValue) Str() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

func (v refValue) Bool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	case KindFloat:
		return v.Float() != 0
	default:
		return false
	}
}

func (v refValue) Time() time.Time { return time.Unix(v.i*86400, 0).UTC() }

func (v refValue) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return v.Time().Format("2006-01-02")
	}
}

// Compare is the order Value.Compare must implement, stated apart from
// it: kinds by their tag, ints and floats as one kind of number; numbers
// as exact math/big floats (so -0 = +0), and every NaN one number above
// them all; strings bytewise; bools and dates by payload.
func (v refValue) Compare(o refValue) int {
	if vr, or := v.rank(), o.rank(); vr != or {
		return cmp.Compare(vr, or)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		a, b := v.exact(), o.exact()
		if a == nil || b == nil {
			return cmp.Compare(b2i(a == nil), b2i(b == nil))
		}
		return a.Cmp(b)
	case KindString:
		return strings.Compare(v.s, o.s)
	default:
		return cmp.Compare(v.i, o.i)
	}
}

func (v refValue) Equal(o refValue) bool { return v.Compare(o) == 0 }

// rank is the kind's place in the order: a float ranks as an int.
func (v refValue) rank() Kind {
	if v.kind == KindFloat {
		return KindInt
	}
	return v.kind
}

// exact is the number v as a math/big float, nil for a NaN.
func (v refValue) exact() *big.Float {
	if v.kind == KindInt {
		return new(big.Float).SetInt64(v.i)
	}
	if f := v.Float(); f == f {
		return big.NewFloat(f)
	}
	return nil
}

// ReferenceCompare is refValue.Compare on two Values: the independent
// statement the key tests in package data_test hold Compare, Equal,
// KeyEqual and HashKey to.
func ReferenceCompare(a, b Value) int { return refOf(a).Compare(refOf(b)) }

func refOf(v Value) refValue {
	if v.kind() == KindString {
		return refValue{kind: KindString, s: v.str()}
	}
	return refValue{kind: v.kind(), i: v.n}
}

// Key is the string Record.Key writes for the one-value record {v}.
func (v refValue) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindInt, KindFloat:
		return "n:" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return "s:" + v.s
	case KindBool:
		return "b:" + strconv.FormatInt(v.i, 10)
	default:
		return "d:" + strconv.FormatInt(v.i, 10)
	}
}

// modelPair builds the same datum both ways from fuzz input: kind k, payload
// word i (a float as its bits), and for a string the tail of s from cut on,
// so that substrings ending where their text ends, empty ones too, occur.
func modelPair(k uint8, i int64, s string, cut uint) (Value, refValue) {
	switch Kind(k % 6) {
	case KindNull:
		return Null, refValue{}
	case KindInt:
		return NewInt(i), refValue{kind: KindInt, i: i}
	case KindFloat:
		return NewFloat(math.Float64frombits(uint64(i))), refValue{kind: KindFloat, i: i}
	case KindString:
		s = s[min(cut, uint(len(s))):]
		return NewString(s), refValue{kind: KindString, s: s}
	case KindBool:
		return NewBool(i&1 == 1), refValue{kind: KindBool, i: i & 1}
	default:
		return NewDateFromDays(i), refValue{kind: KindDate, i: i}
	}
}

// checkModel requires every accessor of v to answer as the model's does.
func checkModel(t *testing.T, v Value, m refValue) {
	t.Helper()
	switch {
	case v.Kind() != m.kind || v.IsNull() != (m.kind == KindNull) || v.IsNumeric() != m.IsNumeric():
		t.Fatalf("%+v: kind %v, null %v, numeric %v", m, v.Kind(), v.IsNull(), v.IsNumeric())
	case v.Int() != m.Int() || math.Float64bits(v.Float()) != math.Float64bits(m.Float()) || v.Bool() != m.Bool():
		t.Fatalf("%+v: Int %d, Float %v, Bool %v; model %d, %v, %v", m, v.Int(), v.Float(), v.Bool(), m.Int(), m.Float(), m.Bool())
	case v.Days() != m.i || !v.Time().Equal(m.Time()):
		t.Fatalf("%+v: Days %d, Time %v; model %d, %v", m, v.Days(), v.Time(), m.i, m.Time())
	case v.Str() != m.Str() || v.String() != m.String() || (Record{v}).Key() != m.Key():
		t.Fatalf("%+v: Str %q, String %q, Key %q; model %q, %q, %q", m, v.Str(), v.String(), Record{v}.Key(), m.Str(), m.String(), m.Key())
	}
}

// FuzzValueModel holds Value to refValue, the layout it had before it was 16
// bytes: every accessor, and Record.Key, on each of two values; Equal, Compare (both ways)
// and KeyEqual between them against the model's exact order; equal hashes
// for equal keys; and digests equal exactly when the two are the same kind
// and payload. The seeds after the seventh sit on the order's edges: ints
// at ±2⁵³ ± k and ±2⁶³ against floats, -0, NaNs, ±Inf and subnormals.
func FuzzValueModel(f *testing.F) {
	f.Add(uint8(KindString), int64(0), "head,tail", uint8(KindString), int64(0), "tail", uint(5))
	f.Add(uint8(KindString), int64(0), "x", uint8(KindNull), int64(0), "", uint(1))
	f.Add(uint8(KindString), int64(0), "NULL", uint8(KindString), int64(0), "a\x00b", uint(0))
	f.Add(uint8(KindInt), int64(math.MinInt64), "", uint8(KindFloat), int64(math.Float64bits(math.Copysign(0, -1))), "", uint(0))
	f.Add(uint8(KindFloat), int64(0x7ff8000000000001), "", uint8(KindFloat), int64(-0x7ffffffffffffedd), "", uint(0))
	f.Add(uint8(KindDate), int64(-25567), "", uint8(KindBool), int64(1), "", uint(0))
	f.Add(uint8(KindInt), int64(1), "", uint8(KindBool), int64(1), "", uint(0))
	fb := func(f float64) int64 { return int64(math.Float64bits(f)) }
	for _, c := range []struct {
		ka Kind
		ia int64
		kb Kind
		ib int64
	}{
		{KindInt, 1<<53 + 1, KindFloat, fb(1 << 53)},
		{KindInt, -1<<53 - 1, KindFloat, fb(-1 << 53)},
		{KindInt, 1<<53 + 2, KindFloat, fb(1<<53 + 2)},
		{KindInt, math.MaxInt64, KindFloat, fb(0x1p63)},
		{KindInt, math.MinInt64, KindFloat, fb(-0x1p63)},
		{KindInt, 1<<63 - 1024, KindFloat, fb(1<<63 - 1024)},
		{KindInt, 0, KindFloat, fb(math.Copysign(0, -1))},
		{KindFloat, 0x7ff8000000000001, KindFloat, fb(math.Inf(1))},
		{KindFloat, -0x7ffffffffffffedd, KindInt, math.MaxInt64},
		{KindFloat, fb(math.Inf(-1)), KindInt, math.MinInt64},
		{KindFloat, 1, KindInt, 0},
		{KindFloat, fb(-2.5), KindInt, -2},
	} {
		f.Add(uint8(c.ka), c.ia, "", uint8(c.kb), c.ib, "", uint(0))
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, sa string, kb uint8, ib int64, sb string, cut uint) {
		a, ma := modelPair(ka, ia, sa, cut)
		b, mb := modelPair(kb, ib, sb, cut)
		checkModel(t, a, ma)
		checkModel(t, b, mb)
		if a.Equal(b) != ma.Equal(mb) || a.Compare(b) != ma.Compare(mb) || b.Compare(a) != -ma.Compare(mb) {
			t.Fatalf("%+v vs %+v: Equal %v, Compare %d, reverse %d; model %v, %d", ma, mb, a.Equal(b), a.Compare(b), b.Compare(a), ma.Equal(mb), ma.Compare(mb))
		}
		ra, rb := Record{a}, Record{b}
		same := ma.Equal(mb)
		if KeyEqual(ra, nil, rb, nil) != same || same && HashKey(ra, nil) != HashKey(rb, nil) {
			t.Fatalf("%+v vs %+v: KeyEqual %v, hashes %#x %#x; model equal %v", ma, mb, KeyEqual(ra, nil, rb, nil), HashKey(ra, nil), HashKey(rb, nil), same)
		}
		if same := ma == mb; (Rows{ra}.Digest() == Rows{rb}.Digest()) != same {
			t.Fatalf("%+v vs %+v: digests equal %v, values the same %v", ma, mb, !same, same)
		}
	})
}
