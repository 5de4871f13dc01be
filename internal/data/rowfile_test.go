package data_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"etlopt/internal/data"
)

// rowFileFixture is a small file's worth of rows holding every kind, and
// the values CSV cannot carry: strings that look like another kind,
// negative zero, NaNs with a payload, the infinities, the integer extremes.
func rowFileFixture() (data.Schema, data.Rows) {
	schema := data.Schema{"A", "B,\"\n", ""}
	vs := adversarialValues()
	vs = append(vs, data.NewString("007"), data.NewString("true"), data.NewString("2024-01-02"),
		data.NewString("comma, quote \" and\nnewline \x1f"), data.NewString("héllo"), data.NewFloat(2))
	var rows data.Rows
	for i := 0; i+2 < len(vs); i += 3 {
		rows = append(rows, data.Record{vs[i], vs[i+1], vs[i+2]})
	}
	return schema, rows
}

// seal closes body with the checksum a row file ends in.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// readDamaged writes content to a file and requires ReadRowFile to refuse
// it with a *RowFileError that names the file, and to return nothing else.
func readDamaged(t *testing.T, what string, content []byte) *data.RowFileError {
	t.Helper()
	path := writeFile(t, "damaged.rows", string(content))
	schema, rows, err := data.ReadRowFile(path)
	var damage *data.RowFileError
	switch {
	case !errors.As(err, &damage):
		t.Fatalf("%s: read gave %v, %d rows, error %v; want a *RowFileError", what, schema, len(rows), err)
	case schema != nil || rows != nil:
		t.Fatalf("%s: a refused file still gave schema %v and %d rows", what, schema, len(rows))
	case damage.Path != path || !strings.Contains(err.Error(), path):
		t.Fatalf("%s: error %v does not name %s", what, err, path)
	case damage.Offset < 0 || damage.Offset > int64(len(content)):
		t.Fatalf("%s: offset %d outside the file's %d bytes", what, damage.Offset, len(content))
	}
	return damage
}

// TestRowFileRoundTrip: every value comes back with its kind and payload
// bits (Rows.Digest folds both), names come back byte for byte, and the
// same content is the same bytes.
func TestRowFileRoundTrip(t *testing.T) {
	schema, rows := rowFileFixture()
	dir := t.TempDir()
	path := filepath.Join(dir, "x.rows")
	if err := data.WriteRowFile(path, schema, rows); err != nil {
		t.Fatal(err)
	}
	gotSchema, got, err := data.ReadRowFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !gotSchema.Equal(schema) || len(got) != len(rows) {
		t.Fatalf("read back schema %q and %d rows, wrote %q and %d", gotSchema, len(got), schema, len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if w, g := rows[i][c], got[i][c]; w.Kind() != g.Kind() {
				t.Errorf("row %d column %d: wrote %s %q, read %s %q", i, c, w.Kind(), w, g.Kind(), g)
			}
		}
	}
	if rows.Digest() != got.Digest() {
		t.Error("the rows read do not digest as the rows written")
	}

	again := filepath.Join(dir, "y.rows")
	if err := data.WriteRowFile(again, gotSchema, got); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(again)
	if !bytes.Equal(a, b) {
		t.Error("writing what was read gave other bytes")
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Errorf("row file mode %v, %v; want 0644 like a record file", st.Mode(), err)
	}
}

// TestRowFileCrossesAWriteChunk: a file longer than one write's worth of
// encoded bytes keeps one running checksum across the writes.
func TestRowFileCrossesAWriteChunk(t *testing.T) {
	rows := make(data.Rows, 20000)
	for i := range rows {
		rows[i] = data.Record{data.NewInt(int64(i)), data.NewString(strings.Repeat("x", i%40)), data.Null}
	}
	path := filepath.Join(t.TempDir(), "big.rows")
	if err := data.WriteRowFile(path, data.Schema{"I", "S", "N"}, rows); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(path); st.Size() < 3*(64<<10) {
		t.Fatalf("fixture is %d bytes: too small to be written in several chunks", st.Size())
	}
	_, got, err := data.ReadRowFile(path)
	if err != nil || got.Digest() != rows.Digest() {
		t.Fatalf("read back %d rows, %v; digest equal: %v", len(got), err, got.Digest() == rows.Digest())
	}
}

func TestRowFileEmptyAndMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.rows")
	if err := data.WriteRowFile(path, data.Schema{"A", "B"}, nil); err != nil {
		t.Fatal(err)
	}
	schema, rows, err := data.ReadRowFile(path)
	if err != nil || !schema.Equal(data.Schema{"A", "B"}) || len(rows) != 0 {
		t.Errorf("a file of no rows read back as %v, %d rows, %v", schema, len(rows), err)
	}
	_, _, err = data.ReadRowFile(path + ".absent")
	var pe *fs.PathError
	if !errors.Is(err, fs.ErrNotExist) || !errors.As(err, &pe) {
		t.Errorf("missing file: %v, want the open's *fs.PathError", err)
	}
	readDamaged(t, "empty file", nil)
}

// TestWriteRowFileRefusesWhatItCouldNotReadBack: the layout has no row
// boundaries, so a record of another arity would shift every value after
// it; the refused write leaves no file and no temp file.
func TestWriteRowFileRefusesWhatItCouldNotReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.rows")
	for name, tc := range map[string]struct {
		schema data.Schema
		rows   data.Rows
	}{
		"short record":     {data.Schema{"A", "B"}, data.Rows{{data.NewInt(1), data.Null}, {data.NewInt(2)}}},
		"long record":      {data.Schema{"A"}, data.Rows{{data.NewInt(1), data.Null}}},
		"rows, no columns": {data.Schema{}, data.Rows{{}}},
	} {
		if err := data.WriteRowFile(path, tc.schema, tc.rows); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: write gave %v, want an error naming the file", name, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused writes left %d files behind", len(entries))
	}
}

// TestReadRowFileDamage cuts a valid file short at every offset, flips one
// byte at every offset, and builds files whose checksum is right and whose
// content is not: each is refused whole, by the typed error, at an offset
// inside the file.
func TestReadRowFileDamage(t *testing.T) {
	schema, rows := rowFileFixture()
	path := filepath.Join(t.TempDir(), "x.rows")
	if err := data.WriteRowFile(path, schema, rows[:4]); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(valid); n++ {
		readDamaged(t, "truncated", valid[:n])
		flipped := bytes.Clone(valid)
		flipped[n] ^= 0x40
		readDamaged(t, "one flipped byte", flipped)
	}
	readDamaged(t, "trailing garbage", append(bytes.Clone(valid), "junk"...))

	body := valid[:len(valid)-4]
	with := func(edit func(b []byte) []byte) []byte { return seal(edit(bytes.Clone(body))) }
	// A one-column file of no rows: magic, version, 1 column "A", 0 rows.
	tiny := []byte("ETLR\x01\x01\x01A")
	for what, tc := range map[string]struct {
		content []byte
		reason  string
	}{
		"another version":       {with(func(b []byte) []byte { b[4] = 2; return b }), "unknown version 2"},
		"not a row file":        {seal([]byte("A,B\n1,2\n3,4\n")), "bad magic"},
		"sealed trailing bytes": {with(func(b []byte) []byte { return append(b, 0) }), "trailing bytes"},
		"a row short":           {with(func(b []byte) []byte { return b[:len(b)-9] }), "short read"},
		"unknown kind":          {seal(append(bytes.Clone(tiny), 1, 6, 0, 0, 0, 0, 0, 0, 0, 0)), "unknown kind 6"},
		"payload cut":           {seal(append(bytes.Clone(tiny), 1, 1, 0, 0, 0)), "short read"},
		"string cut":            {seal(append(bytes.Clone(tiny), 1, 3, 5, 'a', 'b')), "short read"},
		"no kind byte":          {seal(append(bytes.Clone(tiny), 2, 0)), "short read"},
		"non-minimal uvarint":   {seal(append(bytes.Clone(tiny), 0x80, 0)), "non-minimal"},
		"uvarint overflow":      {seal(append(bytes.Clone(tiny), bytes.Repeat([]byte{0xff}, 11)...)), "uvarint"},
		"no row count":          {seal(tiny), "uvarint"},
		"rows of no columns":    {seal([]byte("ETLR\x01\x00\x02")), "short read"},
		"more rows of nothing":  {seal([]byte("ETLR\x01\x00\x02\x00\x00")), "trailing bytes"},
	} {
		if damage := readDamaged(t, what, tc.content); !strings.Contains(damage.Reason, tc.reason) {
			t.Errorf("%s: refused for %q, want %q", what, damage.Reason, tc.reason)
		}
	}
	if _, got, err := data.ReadRowFile(writeFile(t, "tiny.rows", string(seal(append(bytes.Clone(tiny), 0))))); err != nil || len(got) != 0 {
		t.Errorf("the hand-built file of no rows: %d rows, %v", len(got), err)
	}
}

// TestReadRowFileAllocatesByLengthNotByCount: counts of 2^40 rows, columns
// and string bytes in files of a few bytes are refused without allocating
// for them.
func TestReadRowFileAllocatesByLengthNotByCount(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	files := map[string][]byte{
		"columns": seal(append([]byte("ETLR\x01"), huge...)),
		"name":    seal(append([]byte("ETLR\x01\x01"), huge...)),
		"rows":    seal(append([]byte("ETLR\x01\x01\x01A"), huge...)),
		"string":  seal(append(append([]byte("ETLR\x01\x01\x01A\x01"), 3), huge...)),
		// As many rows as the file has bytes left is the most a count may claim.
		"rows to the brim": seal(append([]byte("ETLR\x01\x01\x01A\x7f"), make([]byte, 127)...)),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for what, content := range files {
		if what == "rows to the brim" {
			path := writeFile(t, "brim.rows", string(content))
			if _, rows, err := data.ReadRowFile(path); err != nil || len(rows) != 127 || !rows[126][0].IsNull() {
				t.Errorf("127 NULL rows in 127 bytes: %d rows, %v", len(rows), err)
			}
			continue
		}
		readDamaged(t, what, content)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading five files of under 150 bytes allocated %d bytes", grew)
	}
}

// FuzzReadRowFile: whatever the bytes, a read is an error or rows that
// encode to exactly those bytes, and allocates in proportion to the file.
// Each input is read as it is and once more with a valid checksum put
// after it, which is the only way past the checksum to the decoder.
func FuzzReadRowFile(f *testing.F) {
	schema, rows := rowFileFixture()
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.rows"), filepath.Join(dir, "out.rows")
	// Small seeds: the fuzzer minimizes every input it finds interesting, at
	// a file write and a read per try.
	for _, seed := range []struct {
		schema data.Schema
		rows   data.Rows
	}{{schema, rows[:3]}, {schema[:1], data.Rows{{data.NewString("007")}, {data.NewInt(7)}}}, {data.Schema{"K"}, nil}, {data.Schema{}, nil},
		{data.Schema{"N"}, data.Rows{{data.Null}, {data.NewFloat(math.NaN())}, {data.NewBool(true)}, {data.NewDateFromDays(-1)}}}} {
		if err := data.WriteRowFile(in, seed.schema, seed.rows); err != nil {
			f.Fatal(err)
		}
		content, err := os.ReadFile(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(content)
		f.Add(content[:len(content)-4])
	}
	f.Add([]byte("ETLR\x01\x01\x01A\xff\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, content []byte) {
		for _, content := range [][]byte{content, seal(content)} {
			if err := os.WriteFile(in, content, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			schema, rows, err := data.ReadRowFile(in)
			runtime.ReadMemStats(&after)
			// 80 bytes a file byte covers a 16-byte Value for every kind byte
			// and a 24-byte record header for every row; the rest is the
			// read's own buffers.
			if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(80*len(content)+(64<<10)); grew > bound {
				t.Fatalf("a %d-byte file allocated %d bytes, bound %d", len(content), grew, bound)
			}
			var damage *data.RowFileError
			if err != nil {
				if !errors.As(err, &damage) || schema != nil || rows != nil {
					t.Fatalf("refused with %v (%T), schema %v, %d rows", err, err, schema, len(rows))
				}
				continue
			}
			if err := data.WriteRowFile(out, schema, rows); err != nil {
				t.Fatalf("what was read cannot be written: %v", err)
			}
			if again, _ := os.ReadFile(out); !bytes.Equal(again, content) {
				t.Fatalf("read %x, which encodes as %x", content, again)
			}
		}
	})
}
