package data_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"etlopt/internal/data"
)

// fileOver binds a record file with the given schema and then puts content
// in it: the constructor checks the header, Digest and Scan are to check it
// again.
func fileOver(t *testing.T, schema data.Schema, content []byte) *data.FileRecordset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "F.csv")
	rs, err := data.NewFileRecordset("F", schema, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return rs
}

// headerOf is encoding/csv's reading of content's header row: where it ends,
// and whether a recordset of that schema takes it (an empty file has none
// to refuse).
func headerOf(content []byte, schema data.Schema) (end int, ok bool) {
	r := csv.NewReader(bytes.NewReader(content))
	header, err := r.Read()
	if err == io.EOF {
		return len(content), true
	}
	return int(r.InputOffset()), err == nil && data.Schema(header).Equal(schema)
}

// FuzzFileDigest holds FileRecordset.Digest to its contract on arbitrary
// bytes: it fails exactly when the header row is not the schema; two files
// that digest equal scan equal, value for value, or fail to scan alike; and
// no byte of the file can change without the digest changing.
func FuzzFileDigest(f *testing.F) {
	for i, s := range csvSeeds {
		f.Add([]byte(s), []byte(s), uint(i))
		f.Add([]byte(s), []byte(csvSeeds[(i+1)%len(csvSeeds)]), uint(len(s)-1-i%3))
	}
	f.Fuzz(func(t *testing.T, a, b []byte, at uint) {
		// Both files are bound under a's header, so that a digests whenever
		// it has one.
		schema := data.Schema{"A", "B"}
		if header, err := csv.NewReader(bytes.NewReader(a)).Read(); err == nil {
			schema = header
		}
		digest := func(content []byte) (*data.FileRecordset, uint64, bool) {
			rs := fileOver(t, schema, content)
			d, err := rs.Digest()
			if _, want := headerOf(content, schema); (err == nil) != want {
				t.Fatalf("Digest of %q under schema %q: %v; encoding/csv takes the header: %v", content, schema, err, want)
			}
			if again, _ := rs.Digest(); again != d {
				t.Fatalf("Digest of %q: %#x, then %#x", content, d, again)
			}
			return rs, d, err == nil
		}
		ra, da, oka := digest(a)
		rb, db, okb := digest(b)
		if oka && okb && bytes.Equal(a, b) != (da == db) {
			t.Fatalf("Digest of %q = %#x, of %q = %#x", a, da, b, db)
		}
		if oka && okb && da == db {
			rowsA, errA := ra.Scan()
			rowsB, errB := rb.Scan()
			if (errA == nil) != (errB == nil) {
				t.Fatalf("equal digests, Scan errors %v and %v", errA, errB)
			}
			sameRows(t, rowsA, rowsB)
		}
		if !oka || len(a) == 0 {
			return
		}
		// One byte changed: past the header row the file still digests, and
		// differently; inside it the file is refused or digests differently.
		i := int(at % uint(len(a)))
		c := bytes.Clone(a)
		c[i] ^= 1 << (at / uint(len(a)) % 8)
		_, dc, okc := digest(c)
		if end, _ := headerOf(a, schema); i >= end && !okc {
			t.Fatalf("byte %d of %q is past the header row, and changing it made Digest fail", i, a)
		}
		if okc && dc == da {
			t.Fatalf("%q and %q digest equal: %#x", a, c, da)
		}
	})
}

// TestFileDigestByShape states, for each shape a record file takes, whether
// it digests and what Scan then makes of it. The shapes that scan to the
// same two rows all digest apart: a file is named by its bytes, and equal
// rows spelt differently are not found equal — allowed, merely conservative.
func TestFileDigestByShape(t *testing.T) {
	schema := data.Schema{"A", "B"}
	cases := []struct {
		name, content string
		digests       bool
		rows          int   // Scan's, when it succeeds
		scanErr       error // the *csv.ParseError's cause, when it does not
	}{
		{name: "plain", content: "A,B\n1,x\n2,y\n", digests: true, rows: 2},
		{name: "quoted", content: "A,B\n1,\"x\"\n2,y\n", digests: true, rows: 2},
		{name: "CRLF", content: "A,B\r\n1,x\r\n2,y\r\n", digests: true, rows: 2},
		{name: "blank line", content: "A,B\n1,x\n\n2,y\n", digests: true, rows: 2},
		{name: "trailing blank line", content: "A,B\n1,x\n2,y\n\n", digests: true, rows: 2},
		{name: "unterminated last line", content: "A,B\n1,x\n2,y", digests: true, rows: 2},
		{name: "header only", content: "A,B\n", digests: true},
		{name: "empty", content: "", digests: true},
		{name: "ragged line", content: "A,B\n1,x\n2\n", digests: true, scanErr: csv.ErrFieldCount},
		{name: "unterminated quote", content: "A,B\n1,\"x\n2,y\n", digests: true, scanErr: csv.ErrQuote},
		{name: "columns reordered", content: "B,A\nx,1\ny,2\n"},
		{name: "column renamed", content: "A,C\n1,x\n2,y\n"},
		{name: "bare quote in header", content: "A,B\"\n1,x\n"},
	}
	seen := map[uint64]string{}
	var twoRows data.Rows
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs := fileOver(t, schema, []byte(c.content))
			d, err := rs.Digest()
			rows, scanErr := rs.Scan()
			if !c.digests {
				// Refused as Scan refuses it, in the same words.
				if err == nil || scanErr == nil || err.Error() != scanErr.Error() {
					t.Fatalf("Digest: %v\nScan:   %v\nwant one refusal from both", err, scanErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Digest: %v", err)
			}
			if other, dup := seen[d]; dup {
				t.Errorf("digests as %q does: %#x", other, d)
			}
			seen[d] = c.name
			var pe *csv.ParseError
			if c.scanErr != nil {
				if !errors.As(scanErr, &pe) || pe.Err != c.scanErr {
					t.Fatalf("Scan: %v, want a *csv.ParseError of %v", scanErr, c.scanErr)
				}
				return
			}
			if scanErr != nil || len(rows) != c.rows {
				t.Fatalf("Scan = %d rows, %v; want %d", len(rows), scanErr, c.rows)
			}
			if c.rows == 2 {
				if twoRows == nil {
					twoRows = rows
				}
				sameRows(t, rows, twoRows)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		path := writeFile(t, "gone.csv", "A,B\n")
		rs, err := data.NewFileRecordset("GONE", schema, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err = rs.Digest()
		_, scanErr := rs.Scan()
		if !errors.Is(err, fs.ErrNotExist) || err.Error() != scanErr.Error() {
			t.Fatalf("Digest: %v\nScan:   %v\nwant one not-exist error from both", err, scanErr)
		}
	})

	// A file of three parts (~400 KB) is folded through a fixed buffer: what
	// Digest allocates is the header row's reader (and, under -race, the
	// buffer, which then leaves the stack), whatever the file's size.
	t.Run("allocation", func(t *testing.T) {
		content := partsFixture(3, 0, false, "")
		rs := fileOver(t, data.Schema{"ID", "NOTE", "AMOUNT"}, content)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rs.Digest(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("Digest of a %d-byte file allocated %d bytes", len(content), got)
		}
	})
}
