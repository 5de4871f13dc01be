package data

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refValue is the 32-byte layout Value had before its string bytes and its
// kind shared one word: a kind tag, a payload word (ints, bools, dates, a
// float's bits) and a string header, with each accessor as it read them.
// FuzzValueModel holds Value to it.
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

func (v refValue) Equal(o refValue) bool {
	if v.kind != o.kind {
		if v.IsNumeric() && o.IsNumeric() {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindFloat:
		a, b := v.Float(), o.Float()
		return a == b || (a != a && b != b)
	case KindString:
		return v.s == o.s
	default:
		return v.i == o.i
	}
}

func (v refValue) Compare(o refValue) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
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
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindBool, KindDate:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

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
	case v.Str() != m.Str() || v.String() != m.String() || v.Key() != m.Key():
		t.Fatalf("%+v: Str %q, String %q, Key %q; model %q, %q, %q", m, v.Str(), v.String(), v.Key(), m.Str(), m.String(), m.Key())
	}
}

// FuzzValueModel holds Value to refValue, the layout it had before it was 16
// bytes: every accessor on each of two values; Equal, Compare and KeyEqual
// between them; equal hashes for equal keys; and digests equal exactly when
// the two are the same kind and payload.
func FuzzValueModel(f *testing.F) {
	f.Add(uint8(KindString), int64(0), "head,tail", uint8(KindString), int64(0), "tail", uint(5))
	f.Add(uint8(KindString), int64(0), "x", uint8(KindNull), int64(0), "", uint(1))
	f.Add(uint8(KindString), int64(0), "NULL", uint8(KindString), int64(0), "a\x00b", uint(0))
	f.Add(uint8(KindInt), int64(math.MinInt64), "", uint8(KindFloat), int64(math.Float64bits(math.Copysign(0, -1))), "", uint(0))
	f.Add(uint8(KindFloat), int64(0x7ff8000000000001), "", uint8(KindFloat), int64(-0x7ffffffffffffedd), "", uint(0))
	f.Add(uint8(KindDate), int64(-25567), "", uint8(KindBool), int64(1), "", uint(0))
	f.Add(uint8(KindInt), int64(1), "", uint8(KindBool), int64(1), "", uint(0))
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, sa string, kb uint8, ib int64, sb string, cut uint) {
		a, ma := modelPair(ka, ia, sa, cut)
		b, mb := modelPair(kb, ib, sb, cut)
		checkModel(t, a, ma)
		checkModel(t, b, mb)
		if a.Equal(b) != ma.Equal(mb) || a.Compare(b) != ma.Compare(mb) {
			t.Fatalf("%+v vs %+v: Equal %v, Compare %d; model %v, %d", ma, mb, a.Equal(b), a.Compare(b), ma.Equal(mb), ma.Compare(mb))
		}
		ra, rb := Record{a}, Record{b}
		sameKey := ma.Key() == mb.Key()
		if KeyEqual(ra, nil, rb, nil) != sameKey || sameKey && HashKey(ra, nil) != HashKey(rb, nil) {
			t.Fatalf("%+v vs %+v: KeyEqual %v, hashes %#x %#x; keys equal %v", ma, mb, KeyEqual(ra, nil, rb, nil), HashKey(ra, nil), HashKey(rb, nil), sameKey)
		}
		if same := ma == mb; (Rows{ra}.Digest() == Rows{rb}.Digest()) != same {
			t.Fatalf("%+v vs %+v: digests equal %v, values the same %v", ma, mb, !same, same)
		}
	})
}
