package data_test

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"etlopt/internal/data"
)

// valueKeyReference and recordKeyReference are Value.Key and Record.Key
// as they stood when the engine still keyed its maps by them, frozen here:
// the one-buffer Record.Key must reproduce their bytes, and HashKey and
// KeyEqual must reproduce their equivalence classes.
func valueKeyReference(v data.Value) string {
	switch v.Kind() {
	case data.KindNull:
		return "\x00"
	case data.KindInt, data.KindFloat:
		return "n:" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case data.KindString:
		return "s:" + v.Str()
	case data.KindBool:
		return "b:" + strconv.FormatInt(v.Int(), 10)
	case data.KindDate:
		return "d:" + strconv.FormatInt(v.Days(), 10)
	default:
		return "?"
	}
}

func recordKeyReference(r data.Record) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(valueKeyReference(v))
	}
	return b.String()
}

// adversarialValues are the values on the class boundaries: signed zeros,
// NaNs of different payloads, infinities, ints against floats of equal
// magnitude, ints around 2^53 and at the int64 limits, bool, date and
// string look-alikes of a number, NULL against "", and strings of length
// 0–17 (around the hash's 8-byte words) differing in one byte each.
func adversarialValues() []data.Value {
	vs := []data.Value{
		data.Null, data.NewString(""), data.NewString("NULL"), data.NewString("\x00"),
		data.NewInt(0), data.NewFloat(0), data.NewFloat(math.Copysign(0, -1)),
		data.NewInt(1), data.NewFloat(1), data.NewBool(true), data.NewBool(false),
		data.NewDateFromDays(1), data.NewDateFromDays(0), data.NewString("n:1"), data.NewString("1"),
		data.NewFloat(math.NaN()), data.NewFloat(math.Float64frombits(0x7ff8000000000001)),
		data.NewFloat(math.Float64frombits(0xfff0000000000123)), // a signalling, negative NaN
		data.NewFloat(math.Inf(1)), data.NewFloat(math.Inf(-1)),
		data.NewInt(1 << 53), data.NewInt(1<<53 + 1), data.NewInt(1<<53 - 1), data.NewFloat(1 << 53),
		data.NewInt(math.MaxInt64), data.NewInt(math.MaxInt64 - 1), data.NewFloat(math.MaxInt64),
		data.NewInt(math.MinInt64), data.NewFloat(math.MinInt64),
		data.NewFloat(0.1), data.NewFloat(-2.5e-300), data.NewDate(2005, time.April, 5),
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyz"
	for n := 1; n <= 17; n++ {
		base := alphabet[:n]
		vs = append(vs, data.NewString(base))
		for i := 0; i < n; i++ {
			vs = append(vs, data.NewString(base[:i]+"#"+base[i+1:]))
		}
	}
	return vs
}

// checkKeyPair asserts the two properties on one pair of tuples: KeyEqual
// agrees with the reference key strings (one direction only when a string
// holds the separator, where the string form itself is wrong), and equal
// keys hash equally.
func checkKeyPair(t *testing.T, a, b data.Record) {
	t.Helper()
	same := data.KeyEqual(a, nil, b, nil)
	ref := recordKeyReference(a) == recordKeyReference(b)
	separator := false
	for _, v := range append(a.Clone(), b...) {
		separator = separator || (v.Kind() == data.KindString && strings.Contains(v.Str(), "\x1f"))
	}
	if same && !ref || (ref && !same && !separator) {
		t.Fatalf("KeyEqual(%v, %v) = %v, reference keys %q and %q", a, b, same, recordKeyReference(a), recordKeyReference(b))
	}
	if same && data.HashKey(a, nil) != data.HashKey(b, nil) {
		t.Fatalf("%v and %v are one key but hash %x and %x", a, b, data.HashKey(a, nil), data.HashKey(b, nil))
	}
	if same != data.KeyEqual(b, nil, a, nil) {
		t.Fatalf("KeyEqual(%v, %v) is not symmetric", a, b)
	}
}

// TestKeyClasses sweeps every pair of adversarial values, then random
// tuples of them, and checks key positions against the projected record.
func TestKeyClasses(t *testing.T) {
	vs := adversarialValues()
	for _, a := range vs {
		for _, b := range vs {
			checkKeyPair(t, data.Record{a}, data.Record{b})
		}
	}
	checkKeyPair(t, data.Record{}, data.Record{})
	checkKeyPair(t, data.Record{}, data.Record{data.Null})
	rng := rand.New(rand.NewSource(20050405))
	tuple := func() data.Record {
		r := make(data.Record, rng.Intn(4))
		for i := range r {
			// A small pool, so that equal tuples are common.
			r[i] = vs[rng.Intn(12)]
		}
		return r
	}
	for i := 0; i < 20000; i++ {
		a, b := tuple(), tuple()
		checkKeyPair(t, a, b)
		// The key of a under positions is the key of the projected record.
		pos := rng.Perm(len(a))[:rng.Intn(len(a)+1)]
		proj := make(data.Record, len(pos))
		for k, p := range pos {
			proj[k] = a[p]
		}
		if data.HashKey(a, pos) != data.HashKey(proj, nil) || !data.KeyEqual(a, pos, proj, nil) {
			t.Fatalf("key of %v under %v differs from the key of %v", a, pos, proj)
		}
		if got, want := data.KeyEqual(a, pos, b, nil), data.KeyEqual(proj, nil, b, nil); got != want {
			t.Fatalf("KeyEqual(%v under %v, %v) = %v, projected %v", a, pos, b, got, want)
		}
	}
	// One flipped byte anywhere in a string, or one more byte, moves the
	// hash: no part of a string is skipped.
	seen := map[uint64]data.Value{}
	for _, v := range vs {
		if v.Kind() != data.KindString {
			continue
		}
		h := data.HashKey(data.Record{v}, nil)
		if prev, dup := seen[h]; dup {
			t.Errorf("strings %q and %q share hash %x", prev.Str(), v.Str(), h)
		}
		seen[h] = v
	}
}

// TestKeyEqualSeparatesWhatTheStringKeyJoins pins the separator collision
// the string form has and the tuple comparison does not.
func TestKeyEqualSeparatesWhatTheStringKeyJoins(t *testing.T) {
	a := data.Record{data.NewString("a\x1fs:b"), data.NewString("c")}
	b := data.Record{data.NewString("a"), data.NewString("b\x1fs:c")}
	if a.Key() != b.Key() {
		t.Fatal("the string keys no longer collide: update Record.Key's comment and this test")
	}
	if data.KeyEqual(a, nil, b, nil) {
		t.Error("KeyEqual joins two different tuples whose string keys collide")
	}
}

// FuzzKeyEquivalence builds two values from raw parts and checks them as
// single keys and as the two orders of a pair.
func FuzzKeyEquivalence(f *testing.F) {
	f.Add(uint8(1), int64(1), 1.0, "n:1", uint8(2), int64(1), 1.0, "1")
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", uint8(2), int64(0), 0.0, "")
	f.Add(uint8(1), int64(1<<53+1), math.NaN(), "a\x1fs:b", uint8(2), int64(0), float64(1<<53), "abcdefgh")
	f.Add(uint8(3), int64(0), 0.0, "abcdefghi", uint8(3), int64(0), 0.0, "abcdefghj")
	f.Add(uint8(4), int64(1), 0.0, "", uint8(5), int64(1), 0.0, "")
	mk := func(kind uint8, i int64, f float64, s string) data.Value {
		switch kind % 6 {
		case 0:
			return data.Null
		case 1:
			return data.NewInt(i)
		case 2:
			return data.NewFloat(f)
		case 3:
			return data.NewString(s)
		case 4:
			return data.NewBool(i&1 == 1)
		default:
			return data.NewDateFromDays(i)
		}
	}
	f.Fuzz(func(t *testing.T, k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) {
		a, b := mk(k1, i1, f1, s1), mk(k2, i2, f2, s2)
		if a.Key() != valueKeyReference(a) {
			t.Fatalf("Value.Key %q, reference %q", a.Key(), valueKeyReference(a))
		}
		if r := (data.Record{a, b}); r.Key() != recordKeyReference(r) {
			t.Fatalf("Record.Key %q, reference %q", r.Key(), recordKeyReference(r))
		}
		checkKeyPair(t, data.Record{a}, data.Record{b})
		checkKeyPair(t, data.Record{a, b}, data.Record{b, a})
		checkKeyPair(t, data.Record{a, b}, data.Record{a})
	})
}

// TestRecordKeyMatchesReference holds the one-buffer Record.Key (and
// Value.Key, now a one-value record key) to the frozen bytes.
func TestRecordKeyMatchesReference(t *testing.T) {
	vs := adversarialValues()
	for _, v := range vs {
		if got, want := v.Key(), valueKeyReference(v); got != want {
			t.Errorf("Value.Key(%v) = %q, reference %q", v, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		r := make(data.Record, rng.Intn(7))
		for j := range r {
			r[j] = vs[rng.Intn(len(vs))]
		}
		if got, want := r.Key(), recordKeyReference(r); got != want {
			t.Fatalf("Record.Key(%v) = %q, reference %q", r, got, want)
		}
	}
}

// TestKeyAllocations is the key path's allocation ceiling: hashing and
// comparing key tuples allocate nothing, and the string key — still the
// equivalence suites' multiset key — is one allocation, not ten.
func TestKeyAllocations(t *testing.T) {
	a := data.Record{data.NewString("ORD-2005-A-0042-000000123456"), data.NewInt(7), data.NewFloat(12.125),
		data.Null, data.NewDate(2005, time.April, 5), data.NewString("note 0badcafe carrier=7 instructions=leave-at-door-000042")}
	b := a.Clone()
	pos := []int{5, 0, 2}
	var h uint64
	var eq bool
	var key string
	for name, fn := range map[string]func(){
		"HashKey whole record": func() { h += data.HashKey(a, nil) },
		"HashKey positions":    func() { h += data.HashKey(a, pos) },
		"KeyEqual":             func() { eq = data.KeyEqual(a, nil, b, nil) && data.KeyEqual(a, pos, b, pos) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { key = a.Key() }); n != 1 {
		t.Errorf("Record.Key: %v allocations, want 1", n)
	}
	_, _, _ = h, eq, key
}
