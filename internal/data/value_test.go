package data

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "NULL"},
		{NewInt(42), KindInt, "42"},
		{NewInt(-7), KindInt, "-7"},
		{NewFloat(3.5), KindFloat, "3.5"},
		{NewString("abc"), KindString, "abc"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
		{NewDate(2004, time.March, 1), KindDate, "2004-03-01"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v: String = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
}

func TestValueIsNull(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	if NewInt(0).IsNull() {
		t.Error("NewInt(0).IsNull() = true")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be NULL")
	}
}

func TestValueCoercions(t *testing.T) {
	if got := NewInt(5).Float(); got != 5.0 {
		t.Errorf("NewInt(5).Float() = %v", got)
	}
	if got := NewFloat(5.9).Int(); got != 5 {
		t.Errorf("NewFloat(5.9).Int() = %v", got)
	}
	if got := NewBool(true).Int(); got != 1 {
		t.Errorf("NewBool(true).Int() = %v", got)
	}
	if NewInt(3).Bool() != true || NewInt(0).Bool() != false {
		t.Error("int Bool coercion wrong")
	}
	if Null.Bool() {
		t.Error("Null.Bool() = true")
	}
}

func TestValueEqualCrossKindNumeric(t *testing.T) {
	if !NewInt(5).Equal(NewFloat(5)) {
		t.Error("int 5 should equal float 5")
	}
	if NewInt(5).Equal(NewFloat(5.5)) {
		t.Error("int 5 should not equal float 5.5")
	}
	if NewInt(1).Equal(NewBool(true)) {
		t.Error("int 1 should not equal bool true")
	}
	if !Null.Equal(Null) {
		t.Error("NULL should equal NULL under multiset identity")
	}
	if Null.Equal(NewInt(0)) {
		t.Error("NULL should not equal 0")
	}
}

func TestValueEqualNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if !nan.Equal(nan) {
		t.Error("NaN should equal NaN under multiset identity")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(-100), -1},
		{NewInt(-100), Null, 1},
		{Null, Null, 0},
		{NewDate(2004, time.January, 1), NewDate(2004, time.February, 1), -1},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return NewInt(a).Compare(NewInt(b)) == -NewInt(b).Compare(NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueKeyDistinguishes(t *testing.T) {
	distinct := []Value{
		Null, NewInt(0), NewInt(1), NewFloat(0.5), NewString(""),
		NewString("0"), NewBool(false), NewBool(true), NewDate(2004, time.May, 5),
	}
	seen := map[string]Value{}
	for _, v := range distinct {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("values %v and %v share key %q", prev, v, k)
		}
		seen[k] = v
	}
	// Numeric cross-kind equality shares keys by design.
	if NewInt(5).Key() != NewFloat(5).Key() {
		t.Error("int 5 and float 5 should share a key")
	}
}

func TestValueKeyEqualConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return (va.Key() == vb.Key()) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"", Null},
		{"NULL", Null},
		{"null", Null},
		{"42", NewInt(42)},
		{"-3", NewInt(-3)},
		{"2.5", NewFloat(2.5)},
		{"true", NewBool(true)},
		{"false", NewBool(false)},
		{"2004-03-01", NewDate(2004, time.March, 1)},
		{"hello", NewString("hello")},
		{"01/02/2004", NewString("01/02/2004")},
	}
	for _, c := range cases {
		got := ParseValue(c.in)
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("ParseValue(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		v := NewInt(n)
		return ParseValue(v.String()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDateRoundTrip(t *testing.T) {
	v := NewDate(1999, time.December, 31)
	if got := v.Time().Format("2006-01-02"); got != "1999-12-31" {
		t.Errorf("date round trip = %q", got)
	}
	d := NewDateFromDays(v.Days())
	if !d.Equal(v) {
		t.Error("NewDateFromDays(Days()) != original")
	}
}

// A Value is a pointer word (string bytes or a kind tag) and a payload
// word: an 8-column record is 128 bytes. The zero-length field that makes
// Value non-comparable adds nothing.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
}

// A string Value's pointer word is what keeps its bytes alive. Values cut
// from texts nothing else references — interior and tail substrings of
// their own texts and of one shared text — read back intact after
// collections that reuse the memory of the texts whose values were
// dropped, and an empty value cut at a text's end holds nothing.
func TestStringValuesKeepTheirBytes(t *testing.T) {
	const n = 2000
	piece := func(i int) string { return fmt.Sprintf("%05d-%x|", i, uint32(i*2654435761)) }
	// own[i] is cut from a text of its own, from offset i%7 to the end.
	own := make([]Value, n)
	var shared []Value
	freed := make(chan struct{})
	func() {
		var b strings.Builder
		for i := range own {
			text := strings.Repeat("#", i%7) + strings.Repeat(piece(i), 1+i%40)
			own[i] = NewString(text[i%7:])
			b.WriteString(piece(i))
		}
		whole := b.String()
		for i, off := 0, 0; i < n; i++ {
			shared = append(shared, NewString(whole[off:off+len(piece(i))]))
			off += len(piece(i))
		}
		shared = append(shared, NewString(whole[len(whole)-len(piece(n-1)):]), NewString(whole[len(whole):]))

		// An empty value cut at the end of a text does not keep the text.
		buf := make([]byte, 64)
		runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
		own[0] = NewString(unsafe.String(&buf[0], len(buf))[len(buf):])
	}()
	for i := 2; i < n; i += 2 {
		own[i] = Null
	}
	var junk [][]byte
	for round := 0; round < 4; round++ {
		runtime.GC()
		for j := 0; j < 256; j++ {
			junk = append(junk, bytes.Repeat([]byte{0xff}, 16+j%200))
		}
	}
	for i := 1; i < n; i += 2 {
		if want := strings.Repeat(piece(i), 1+i%40); own[i].Kind() != KindString || own[i].Str() != want {
			t.Fatalf("own text %d reads %q after collections, want %q", i, own[i].Str(), want)
		}
	}
	for i := 0; i < n; i++ {
		if shared[i].Str() != piece(i) {
			t.Fatalf("shared text value %d reads %q after collections, want %q", i, shared[i].Str(), piece(i))
		}
	}
	if tail, end := shared[n], shared[n+1]; tail.Str() != piece(n-1) || end.Kind() != KindString || end.Str() != "" || own[0].Str() != "" {
		t.Fatalf("tail %q, empty at the end %v %q, empty of a freed text %q", tail.Str(), end.Kind(), end.Str(), own[0].Str())
	}
	for wait := 0; ; wait++ {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(10 * time.Millisecond):
			if wait < 100 {
				continue
			}
			t.Error("an empty value cut at the end of a text keeps the text alive")
		}
		break
	}
	runtime.KeepAlive(own)
	runtime.KeepAlive(junk)
}

// Floats live in the integer payload as their bits. The answers below were
// recorded from the layout that kept them in a float64 field of their own
// (commit de1c458): every float, the edge cases included, must go through
// every accessor, the key path, the digest and the CSV round trip exactly
// as it did there — the digest column excepted, re-recorded when Rows.Digest
// moved from the byte-wise FNV fold to HashKey's word fold (PR 28). cmp and
// eq are Compare and Equal against int 0 and int MaxInt64.
func TestFloatPayloadAnswersUnchanged(t *testing.T) {
	cases := []struct {
		bits       uint64
		str, key   string
		hash       uint64
		digest     uint64
		parsedKind Kind
		parsedBits uint64
		truth      bool
		cmp        [2]int
		eq         [2]bool
	}{
		{0x0, "0", "n:0", 0x5b73f5e69926939f, 0x74fad7e66bc9a1ed, KindInt, 0x0, false, [2]int{0, -1}, [2]bool{true, false}},
		{0x8000000000000000, "-0", "n:-0", 0x67dd6da1d3635f29, 0x4474ad0987fee3d8, KindInt, 0x0, false, [2]int{0, -1}, [2]bool{true, false}},
		{0x7ff0000000000000, "+Inf", "n:+Inf", 0x7936f8d585ffbbe, 0xc1f5cd643d9b8435, KindFloat, 0x7ff0000000000000, true, [2]int{1, 1}, [2]bool{false, false}},
		{0xfff0000000000000, "-Inf", "n:-Inf", 0x8a2e4e0aeae4c4e6, 0xcbba1a34ea3ddf16, KindFloat, 0xfff0000000000000, true, [2]int{-1, -1}, [2]bool{false, false}},
		// Two NaN payloads: one key class and one rendering, two digests.
		{0x7ff8000000000001, "NaN", "n:NaN", 0xaa534a1bb8e2998c, 0x42fe551a857254c4, KindFloat, 0x7ff8000000000001, true, [2]int{0, 0}, [2]bool{false, false}},
		{0xfff8000000000123, "NaN", "n:NaN", 0xaa534a1bb8e2998c, 0x987403c2ae645593, KindFloat, 0x7ff8000000000001, true, [2]int{0, 0}, [2]bool{false, false}},
		// Subnormals: the smallest positive, the largest negative.
		{0x1, "5e-324", "n:5e-324", 0x6c94b74998c2c4f9, 0x5ae8149c197e3b1a, KindFloat, 0x1, true, [2]int{1, -1}, [2]bool{false, false}},
		{0x800fffffffffffff, "-2.225073858507201e-308", "n:-2.225073858507201e-308", 0x19fa58b46297aabc, 0x3e66d0b8f8819907, KindFloat, 0x800fffffffffffff, true, [2]int{-1, -1}, [2]bool{false, false}},
		// 2^63 (what float64(MaxInt64) rounds to), its predecessor, -2^63, 2^53.
		{0x43e0000000000000, "9.223372036854776e+18", "n:9.223372036854776e+18", 0xe917502b131230fb, 0xd8fb4fe2cff53d07, KindFloat, 0x43e0000000000000, true, [2]int{1, 0}, [2]bool{false, true}},
		{0x43dfffffffffffff, "9.223372036854775e+18", "n:9.223372036854775e+18", 0x81638089ecef651b, 0x21a05602ee7e71d7, KindFloat, 0x43dfffffffffffff, true, [2]int{1, -1}, [2]bool{false, false}},
		{0xc3e0000000000000, "-9.223372036854776e+18", "n:-9.223372036854776e+18", 0xfda25cd1d0f190c0, 0xf29343282283f1d7, KindFloat, 0xc3e0000000000000, true, [2]int{-1, -1}, [2]bool{false, false}},
		{0x4340000000000000, "9.007199254740992e+15", "n:9.007199254740992e+15", 0x47d15afd74278981, 0x88e16667a15f9f9d, KindFloat, 0x4340000000000000, true, [2]int{1, -1}, [2]bool{false, false}},
		{0x3ff8000000000000, "1.5", "n:1.5", 0x9db16cf5cbfaa20c, 0xeece8111feb429a6, KindFloat, 0x3ff8000000000000, true, [2]int{1, -1}, [2]bool{false, false}},
		{0xc01c000000000000, "-7", "n:-7", 0x59ce2b992efb913d, 0x2c176d7f897ca2f8, KindInt, 0xc01c000000000000, true, [2]int{-1, -1}, [2]bool{false, false}},
	}
	ints := [2]Value{NewInt(0), NewInt(math.MaxInt64)}
	for _, c := range cases {
		f := math.Float64frombits(c.bits)
		v := NewFloat(f)
		if v.Kind() != KindFloat || math.Float64bits(v.Float()) != c.bits {
			t.Errorf("%#x: NewFloat → kind %v, bits %#x", c.bits, v.Kind(), math.Float64bits(v.Float()))
		}
		if got := v.Int(); got != int64(f) {
			t.Errorf("%#x: Int = %d, want %d", c.bits, got, int64(f))
		}
		if v.String() != c.str || v.Str() != c.str || v.Key() != c.key {
			t.Errorf("%#x: String %q, Str %q, Key %q; want %q, %q", c.bits, v.String(), v.Str(), v.Key(), c.str, c.key)
		}
		if got := HashKey(Record{v}, nil); got != c.hash {
			t.Errorf("%#x: HashKey = %#x, want %#x", c.bits, got, c.hash)
		}
		if got := (Rows{{v}}).Digest(); got != c.digest {
			t.Errorf("%#x: Digest = %#x, want %#x", c.bits, got, c.digest)
		}
		if v.Bool() != c.truth {
			t.Errorf("%#x: Bool = %v, want %v", c.bits, v.Bool(), c.truth)
		}
		if !v.Equal(v) || v.Compare(v) != 0 || !KeyEqual(Record{v}, nil, Record{v}, nil) {
			t.Errorf("%#x: not equal to itself", c.bits)
		}
		for k, o := range ints {
			if got := v.Compare(o); got != c.cmp[k] || o.Compare(v) != -got {
				t.Errorf("%#x: Compare(%v) = %d (reverse %d), want %d", c.bits, o, got, o.Compare(v), c.cmp[k])
			}
			if got := v.Equal(o); got != c.eq[k] || o.Equal(v) != got {
				t.Errorf("%#x: Equal(%v) = %v (reverse %v), want %v", c.bits, o, got, o.Equal(v), c.eq[k])
			}
		}
		p := ParseValue(v.String())
		if p.Kind() != c.parsedKind || math.Float64bits(p.Float()) != c.parsedBits {
			t.Errorf("%#x: ParseValue(%q) = %v %#x, want %v %#x", c.bits, v.String(), p.Kind(), math.Float64bits(p.Float()), c.parsedKind, c.parsedBits)
		}
	}
}
