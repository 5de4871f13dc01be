package data

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSchemaBasics(t *testing.T) {
	s := Schema{"A", "B", "C"}
	if s.Index("B") != 1 {
		t.Errorf("Index(B) = %d", s.Index("B"))
	}
	if s.Index("Z") != -1 {
		t.Errorf("Index(Z) = %d", s.Index("Z"))
	}
	if !s.Has("A") || s.Has("Z") {
		t.Error("Has wrong")
	}
	if !s.HasAll(Schema{"A", "C"}) {
		t.Error("HasAll(A,C) = false")
	}
	if s.HasAll(Schema{"A", "Z"}) {
		t.Error("HasAll(A,Z) = true")
	}
	if !s.HasAll(nil) {
		t.Error("HasAll(nil) = false; empty set is a subset of everything")
	}
}

func TestSchemaEqualAndSameSet(t *testing.T) {
	a := Schema{"A", "B"}
	b := Schema{"B", "A"}
	if a.Equal(b) {
		t.Error("order-sensitive Equal should fail")
	}
	if !a.SameSet(b) {
		t.Error("SameSet should ignore order")
	}
	if a.SameSet(Schema{"A", "B", "C"}) {
		t.Error("SameSet with different sizes")
	}
	// SameSet compares as sets of names; duplicate attribute names do not
	// occur in well-formed schemas.
	if !a.SameSet(a) {
		t.Error("SameSet self")
	}
}

func TestSchemaSetOps(t *testing.T) {
	s := Schema{"A", "B", "C", "D"}
	if got := s.Minus(Schema{"B", "D"}); !got.Equal((Schema{"A", "C"})) {
		t.Errorf("Minus = %v", got)
	}
	if got := s.Intersect(Schema{"D", "B", "Z"}); !got.Equal((Schema{"B", "D"})) {
		t.Errorf("Intersect = %v (order should follow receiver)", got)
	}
	if got := (Schema{"A"}).Union(Schema{"B", "A", "C"}); !got.Equal((Schema{"A", "B", "C"})) {
		t.Errorf("Union = %v", got)
	}
}

func TestSchemaCloneIndependence(t *testing.T) {
	s := Schema{"A", "B"}
	c := s.Clone()
	c[0] = "X"
	if s[0] != "A" {
		t.Error("Clone shares storage")
	}
	if Schema(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestProjectionCut(t *testing.T) {
	src := Schema{"A", "B", "C"}
	rec := Record{NewInt(1), NewInt(2), NewInt(3)}
	var c Chunks
	got := NewProjection(src, Schema{"C", "A"}).Cut(&c, rec)
	if len(got) != 2 || cap(got) != 2 || !got[0].Equal(NewInt(3)) || !got[1].Equal(NewInt(1)) {
		t.Errorf("Cut = %v (cap %d)", got, cap(got))
	}
	// Missing attributes project to NULL.
	got = NewProjection(src, Schema{"Z"}).Cut(&c, rec)
	if !got[0].IsNull() {
		t.Errorf("missing attribute should be NULL, got %v", got[0])
	}
}

func TestRecordKey(t *testing.T) {
	a := Record{NewInt(1), NewString("x")}
	b := Record{NewInt(1), NewString("x")}
	c := Record{NewInt(1), NewString("y")}
	if a.Key() != b.Key() {
		t.Error("equal records should share keys")
	}
	if a.Key() == c.Key() {
		t.Error("different records should not share keys")
	}
	// Separator safety: ("ab","c") must differ from ("a","bc").
	d := Record{NewString("ab"), NewString("c")}
	e := Record{NewString("a"), NewString("bc")}
	if d.Key() == e.Key() {
		t.Error("record key is ambiguous across value boundaries")
	}
}

func TestRowsSameMultiset(t *testing.T) {
	r1 := Record{NewInt(1)}
	r2 := Record{NewInt(2)}
	a := Rows{r1, r2, r1}
	b := Rows{r2, r1, r1}
	if err := a.SameMultiset(b); err != nil {
		t.Errorf("order should not matter: %v", err)
	}
	if a.SameMultiset(Rows{r1, r2}) == nil {
		t.Error("different sizes should differ")
	}
	if a.SameMultiset(Rows{r1, r2, r2}) == nil {
		t.Error("different multiplicities should differ")
	}
	if err := (Rows{}).SameMultiset(nil); err != nil {
		t.Errorf("empty multisets should be equal: %v", err)
	}
	// Kinds count: an int is not the float of equal value.
	if (Rows{{NewInt(2)}}).SameMultiset(Rows{{NewFloat(2)}}) == nil {
		t.Error("Int(2) and Float(2) should differ")
	}
}

// TestRowsSameMultisetIsExact: records whose digests collide are still told
// apart, value by value with kinds. mixWord folds a word in by XOR, so a
// second word can cancel the first: (1, 2) and (3, -2433631551321537053)
// digest alike. -0 and +0, and two NaNs, are told apart as the digest tells
// them apart.
func TestRowsSameMultisetIsExact(t *testing.T) {
	a, b := Record{NewInt(1), NewInt(2)}, Record{NewInt(3), NewInt(-2433631551321537053)}
	if da, db := (Rows{a}).Digest(), (Rows{b}).Digest(); da != db {
		t.Fatalf("the records no longer collide (%016x, %016x)", da, db)
	}
	for _, c := range []struct {
		x, y Rows
		same bool
	}{
		{Rows{a}, Rows{b}, false},
		{Rows{a, a, b}, Rows{a, b, b}, false},
		{Rows{b, a, b, a}, Rows{a, b, a, b}, true},
		{Rows{{NewFloat(math.Copysign(0, -1))}}, Rows{{NewFloat(0)}}, false},
		{Rows{{NewFloat(math.NaN())}}, Rows{{NewFloat(-math.NaN())}}, false},
	} {
		if err := c.x.SameMultiset(c.y); (err == nil) != c.same {
			t.Errorf("%v against %v: SameMultiset = %v, want the same multiset: %t", c.x, c.y, err, c.same)
		}
	}
}

func TestRowsSameMultisetProperty(t *testing.T) {
	f := func(vals []int64, seed uint8) bool {
		rows := make(Rows, len(vals))
		for i, v := range vals {
			rows[i] = Record{NewInt(v)}
		}
		// Rotate as a cheap permutation.
		k := 0
		if len(rows) > 0 {
			k = int(seed) % len(rows)
		}
		perm := append(append(Rows{}, rows[k:]...), rows[:k]...)
		return rows.SameMultiset(perm) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRowsSameMultisetNamesTheRecord: a mismatch names a record one side
// holds more often, with its kinds and both counts.
func TestRowsSameMultisetNamesTheRecord(t *testing.T) {
	a := Rows{{NewInt(1), NewString("x")}, {NewInt(2), NewString("y")}, {NewInt(2), NewString("y")}}
	b := Rows{{NewInt(1), NewString("x")}, {NewInt(2), NewString("y")}}
	want := "record (2, y) of kinds (int, string): 2× in the first rows, 1× in the second"
	if err := a.SameMultiset(b); err == nil || err.Error() != want {
		t.Errorf("SameMultiset = %v, want %q", err, want)
	}
	// Int(2) against Float(2): either may be named, with its own kind.
	err := (Rows{{NewInt(2)}}).SameMultiset(Rows{{NewFloat(2)}})
	if err == nil || err.Error() != "record (2) of kinds (int): 1× in the first rows, 0× in the second" &&
		err.Error() != "record (2) of kinds (float): 0× in the first rows, 1× in the second" {
		t.Errorf("SameMultiset = %v, want Int(2) or Float(2) named with its kind", err)
	}
}

func TestSplitRoundRobin(t *testing.T) {
	rows := make(Rows, 11)
	for i := range rows {
		rows[i] = Record{NewInt(int64(i))}
	}
	for _, n := range []int{1, 2, 3, 11, 20} {
		parts := rows.SplitRoundRobin(n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d partitions", n, len(parts))
		}
		// Row i must sit in partition i mod n, in order.
		for p, part := range parts {
			for j, r := range part {
				if want := int64(p + j*n); r[0].Int() != want {
					t.Fatalf("n=%d partition %d slot %d = %v, want %d", n, p, j, r, want)
				}
			}
		}
	}
	// Degenerate counts clamp to one partition.
	if parts := rows.SplitRoundRobin(0); len(parts) != 1 || len(parts[0]) != len(rows) {
		t.Errorf("n=0 should clamp to a single full partition")
	}
	if parts := Rows(nil).SplitRoundRobin(4); len(parts) != 4 {
		t.Errorf("empty rows should still yield 4 empty partitions")
	}
}
