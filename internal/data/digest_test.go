package data

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func digestRows() Rows {
	return Rows{
		{NewInt(1), NewString("alpha"), NewFloat(10.5)},
		{NewInt(2), NewString("beta"), Null},
		{NewInt(3), NewString(""), NewDate(2004, time.March, 15)},
	}
}

func TestDigestDeterministic(t *testing.T) {
	a, b := digestRows(), digestRows()
	if a.Digest() != b.Digest() {
		t.Fatalf("equal rows digest differently: %x vs %x", a.Digest(), b.Digest())
	}
}

func TestDigestOrderSensitive(t *testing.T) {
	a := digestRows()
	b := digestRows()
	b[0], b[1] = b[1], b[0]
	if a.Digest() == b.Digest() {
		t.Fatal("row order did not change the digest")
	}
}

func TestDigestTypeSensitive(t *testing.T) {
	cases := []struct{ a, b Value }{
		{NewInt(7), NewFloat(7)},
		{NewInt(7), NewString("7")},
		{NewString("NULL"), Null},
		{NewBool(true), NewInt(1)},
		{NewDateFromDays(1), NewInt(1)},
	}
	for _, c := range cases {
		ra := Rows{{c.a}}
		rb := Rows{{c.b}}
		if ra.Digest() == rb.Digest() {
			t.Errorf("%s and %s digest equal", c.a, c.b)
		}
	}
}

func TestDigestBoundaryShifts(t *testing.T) {
	// Value boundaries must matter: ("ab","c") vs ("a","bc"), and a
	// trailing empty string vs nothing.
	a := Rows{{NewString("ab"), NewString("c")}}
	b := Rows{{NewString("a"), NewString("bc")}}
	if a.Digest() == b.Digest() {
		t.Fatal("string boundary shift digests equal")
	}
	c := Rows{{NewString("x")}}
	d := Rows{{NewString("x"), NewString("")}}
	if c.Digest() == d.Digest() {
		t.Fatal("trailing empty value digests equal")
	}
	// Record boundaries must matter too: one two-value record vs two
	// one-value records.
	e := Rows{{NewInt(1), NewInt(2)}}
	f := Rows{{NewInt(1)}, {NewInt(2)}}
	if e.Digest() == f.Digest() {
		t.Fatal("record split digests equal")
	}
}

func TestDigestEmpty(t *testing.T) {
	if Rows(nil).Digest() != (Rows{}).Digest() {
		t.Fatal("nil and empty rows digest differently")
	}
	if Rows(nil).Digest() == digestRows().Digest() {
		t.Fatal("empty digest collides with data digest")
	}
}

func TestRecordsetDigest(t *testing.T) {
	schema := Schema{"KEY", "NAME", "V1"}
	a := NewMemoryRecordset("A", schema).MustLoad(digestRows())
	b := NewMemoryRecordset("B", schema).MustLoad(digestRows())
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("same schema and contents, different digest")
	}
	c := NewMemoryRecordset("C", Schema{"KEY", "NAME", "V2"}).MustLoad(digestRows())
	dc, err := c.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dc == da {
		t.Fatal("schema change did not change the digest")
	}
}

// A memory table's digest is its content's: reading leaves it alone, every
// write moves it, and it can be asked for while another goroutine loads.
func TestMemoryRecordsetDigest(t *testing.T) {
	digest := func(rs Recordset) uint64 {
		t.Helper()
		d, err := rs.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	schema := Schema{"KEY", "NAME", "V1"}
	m := NewMemoryRecordset("M", schema).MustLoad(digestRows())
	loaded := digest(m)
	for i := 0; i < 2; i++ {
		if _, err := m.Scan(); err != nil {
			t.Fatal(err)
		}
		if digest(m) != loaded {
			t.Fatal("a Scan changed the digest")
		}
	}
	m.MustLoad(digestRows()[:1])
	if digest(m) == loaded {
		t.Fatal("Load did not change the digest")
	}
	if err := m.Truncate(); err != nil {
		t.Fatal(err)
	}
	if d := digest(m); d == loaded || d != digest(NewMemoryRecordset("E", schema)) {
		t.Fatal("a truncated table does not digest as an empty one")
	}

	// The same rows in a record file: a digest names content within one
	// kind of recordset only, so the two are not found equal.
	f, err := NewFileRecordset("F", schema, filepath.Join(t.TempDir(), "F.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows{{NewInt(1), NewString("alpha"), NewFloat(10.5)}}
	if err := f.Load(rows); err != nil {
		t.Fatal(err)
	}
	if digest(f) == digest(NewMemoryRecordset("M", schema).MustLoad(rows)) {
		t.Fatal("a record file and a memory table digest equal")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			m.MustLoad(rows)
		}
	}()
	for i := 0; i < 100; i++ {
		digest(m)
	}
	wg.Wait()
	if want := NewMemoryRecordset("W", schema); digest(m) != digest(want.MustLoad(m.rows)) {
		t.Fatal("the digest after concurrent loads is not the content's")
	}
}
