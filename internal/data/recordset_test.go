package data

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestMemoryRecordsetBasics(t *testing.T) {
	rs := NewMemoryRecordset("T", Schema{"A", "B"})
	if rs.Name() != "T" {
		t.Errorf("Name = %q", rs.Name())
	}
	if got, _ := rs.Scan(); len(got) != 0 {
		t.Errorf("empty Scan = %v", got)
	}
	rows := Rows{
		{NewInt(1), NewString("x")},
		{NewInt(2), Null},
	}
	if err := rs.Load(rows); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SameMultiset(rows); err != nil {
		t.Errorf("Scan = %v: %v", got, err)
	}
}

func TestMemoryRecordsetArityCheck(t *testing.T) {
	rs := NewMemoryRecordset("T", Schema{"A", "B"})
	if err := rs.Load(Rows{{NewInt(1)}}); err == nil {
		t.Error("loading a 1-value record into a 2-attribute schema should fail")
	}
}

func TestMemoryRecordsetSchemaIsolated(t *testing.T) {
	schema := Schema{"A"}
	rs := NewMemoryRecordset("T", schema)
	schema[0] = "MUTATED"
	if rs.Schema()[0] != "A" {
		t.Error("recordset shares caller's schema storage")
	}
	got := rs.Schema()
	got[0] = "ALSO-MUTATED"
	if rs.Schema()[0] != "A" {
		t.Error("Schema() exposes internal storage")
	}
}

func TestMemoryRecordsetConcurrentLoad(t *testing.T) {
	rs := NewMemoryRecordset("T", Schema{"A"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := rs.Load(Rows{{NewInt(int64(i*100 + j))}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got, _ := rs.Scan(); len(got) != 400 {
		t.Errorf("Scan = %d rows, want 400", len(got))
	}
}

func TestFileRecordsetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "parts.csv")
	schema := Schema{"PKEY", "COST", "NOTE"}
	rs, err := NewFileRecordset("PARTS", schema, path)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows{
		{NewInt(1), NewFloat(9.5), NewString("ok")},
		{NewInt(2), Null, NewString("missing cost")},
		{NewInt(3), NewFloat(120), NewString("")},
	}
	if err := rs.Load(rows); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("Scan returned %d rows", len(got))
	}
	if !got[1][1].IsNull() {
		t.Errorf("NULL did not round trip: %v", got[1][1])
	}
	if got[0][1].Float() != 9.5 {
		t.Errorf("float did not round trip: %v", got[0][1])
	}

	// Reopen against the same file: header must match.
	rs2, err := NewFileRecordset("PARTS", schema, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rs2.Scan(); len(got) != 3 {
		t.Errorf("reopened Scan = %d rows", len(got))
	}

	// Mismatched schema must be rejected.
	if _, err := NewFileRecordset("PARTS", Schema{"X"}, path); err == nil {
		t.Error("reopening with a different schema should fail")
	}
}

func TestFileRecordsetEmptyScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.csv")
	rs, err := NewFileRecordset("E", Schema{"A", "B"}, path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rs.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("empty file Scan = %v", rows)
	}
}

// A record file is read by position, so a file rewritten between bind and
// Scan with its columns reordered (same count, same names) must be refused,
// not read into the wrong attributes. A file emptied to zero bytes keeps
// its meaning: no header to compare, no rows.
func TestFileRecordsetScanChecksHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "PARTS.csv")
	if err := os.WriteFile(path, []byte("PKEY,COST\n1,9.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := NewFileRecordset("PARTS", Schema{"PKEY", "COST"}, path)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := rs.Scan(); err != nil || len(rows) != 1 {
		t.Fatalf("Scan of the bound file = %v, %v", rows, err)
	}
	if err := os.WriteFile(path, []byte("COST,PKEY\n9.5,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = rs.Scan()
	if err == nil {
		t.Fatal("Scan read a file whose columns were reordered after binding")
	}
	for _, want := range []string{path, "header COST,PKEY", "schema PKEY,COST"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if rows, err := rs.Scan(); err != nil || len(rows) != 0 {
		t.Errorf("Scan of an emptied file = %v, %v; want no rows, no error", rows, err)
	}
}

// PartBytes lets the external tests build files around the part size.
const PartBytes = partBytes

// Load appends, so what the file ends in decides what the appended records
// mean. An empty file — which Scan reads as "no header, no rows" — gets its
// header first, and a last line without its newline is ended before the
// first record, not continued by it.
func TestFileRecordsetLoadStartsOnAFreshLine(t *testing.T) {
	cases := []struct {
		name, before, after string
		schema              Schema
		load, want          Rows
	}{
		{name: "empty file", before: "", after: "A,B\n1,2\n", schema: Schema{"A", "B"},
			load: Rows{{NewInt(1), NewInt(2)}}, want: Rows{{NewInt(1), NewInt(2)}}},
		{name: "empty file, no rows", before: "", after: "A,B\n", schema: Schema{"A", "B"}},
		{name: "unterminated record", before: "A\n1", after: "A\n1\n3\n", schema: Schema{"A"},
			load: Rows{{NewInt(3)}}, want: Rows{{NewInt(1)}, {NewInt(3)}}},
		{name: "unterminated record, two columns", before: "A,B\n1,2", after: "A,B\n1,2\n3,4\n", schema: Schema{"A", "B"},
			load: Rows{{NewInt(3), NewInt(4)}}, want: Rows{{NewInt(1), NewInt(2)}, {NewInt(3), NewInt(4)}}},
		{name: "unterminated header", before: "A", after: "A\n3\n", schema: Schema{"A"},
			load: Rows{{NewInt(3)}}, want: Rows{{NewInt(3)}}},
		{name: "terminated", before: "A\n1\n", after: "A\n1\n3\n", schema: Schema{"A"},
			load: Rows{{NewInt(3)}}, want: Rows{{NewInt(1)}, {NewInt(3)}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "T.csv")
			rs, err := NewFileRecordset("T", c.schema, path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(c.before), 0o644); err != nil { // rewritten since it was bound
				t.Fatal(err)
			}
			if err := rs.Load(c.load); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != c.after {
				t.Errorf("file after Load = %q, %v; want %q", got, err, c.after)
			}
			got, err := rs.Scan()
			if err != nil {
				t.Fatalf("Scan after Load: %v", err)
			}
			if len(got) != len(c.want) || got.Digest() != c.want.Digest() {
				t.Errorf("Scan after Load = %v, want %v", got, c.want)
			}
		})
	}
}
