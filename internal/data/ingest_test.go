package data_test

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/generator"
)

// parseValueReference is data.ParseValue as it stood before the byte-class
// pre-test: every field runs through each parser in turn. It is the
// definition ParseValue must reproduce bit for bit.
func parseValueReference(s string) data.Value {
	switch s {
	case "", "NULL", "null":
		return data.Null
	case "true":
		return data.NewBool(true)
	case "false":
		return data.NewBool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return data.NewInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return data.NewFloat(f)
	}
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return data.NewDateFromDays(t.Unix() / 86400)
	}
	return data.NewString(s)
}

// scanReference is FileRecordset.Scan's loop as it stood before the three
// CSV-to-rows loops were merged into data.ReadCSVFile.
func scanReference(path string) (data.Rows, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	r := csv.NewReader(fh)
	if _, err := r.Read(); err != nil { // header
		if err == io.EOF {
			return nil, nil
		}
		return nil, err
	}
	var rows data.Rows
	for {
		fields, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("record file %s: %w", path, err)
		}
		rec := make(data.Record, len(fields))
		for i, s := range fields {
			rec[i] = parseValueReference(s)
		}
		rows = append(rows, rec)
	}
	return rows, nil
}

// sameValue compares kind and payload bits; floats by bit pattern, so a
// NaN equals only the same NaN and -0 differs from +0.
func sameValue(a, b data.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case data.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case data.KindString:
		return a.Str() == b.Str()
	default:
		return a.Int() == b.Int()
	}
}

func checkParse(t *testing.T, s string) {
	t.Helper()
	got, want := data.ParseValue(s), parseValueReference(s)
	if !sameValue(got, want) {
		t.Errorf("ParseValue(%q) = %s %v, reference %s %v", s, got.Kind(), got, want.Kind(), want)
	}
}

var parseEdgeCases = []string{
	"", "NULL", "null", "true", "false", "TRUE", "Null",
	"0", "7", "-7", "+7", "007", "-0", " 7", "7 ", "1_000", "0x10", "0b1", "0o7",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	"-9223372036854775809", "99999999999999999999",
	"1.5", "-0.125", ".5", "5.", "1e3", "1E-3", "1e999", "-1e999", "1e", "e1", "1e+",
	"0x1p-2", "0X1P+4", "0x1.8p1", "0x1p", "0x_1p0", "1_0.5", "1__0",
	"Inf", "+Inf", "-Inf", "inf", "Infinity", "-infinity", "INFINITY", "infinit",
	"nan", "NaN", "NAN", "+nan", "-nan", "nano", "in", "n", "i",
	"-", "+", ".", "+-1", "--1", "1-1", "1+1", "-.5", "+.5e-2",
	"2004-02-15", "2004-02-30", "2004-13-01", "0000-01-01", "9999-12-31",
	"2004-2-15", "2004-02-15 ", "12004-02-15", "2004-02-150", "2004_02_15",
	"-004-02-15", "2004-02-1e", "02/15/2004", "2004/02/15", "20040215",
	"alpha", "delta ", "payload-12", "north", "island", "note 0a 0b",
	"ORD-2005-A-0001-000000000001", "dead-beef", "fade", "a1", "1a", "é", "1é", "\x00", "1\x00",
}

// FuzzParseValue asserts ParseValue and the frozen reference agree on kind
// and payload bits for every input. `go test` runs the seed corpus; CI and
// the acceptance run fuzz beyond it.
func FuzzParseValue(f *testing.F) {
	for _, s := range parseEdgeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
	})
}

// TestParseValueMatchesReference sweeps strings drawn from the bytes the
// numeric and date grammars use, which random fuzzing reaches slowly:
// every string of up to three such bytes, then longer random ones.
func TestParseValueMatchesReference(t *testing.T) {
	const alphabet = "0123456789+-._eExXpPinfatyINFATYbo /:,\x80"
	var sweep func(prefix string, depth int)
	sweep = func(prefix string, depth int) {
		checkParse(t, prefix)
		if depth == 0 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			sweep(prefix+alphabet[i:i+1], depth-1)
		}
	}
	sweep("", 3)

	rng := rand.New(rand.NewSource(20050405))
	shapes := []func() string{
		func() string { // any bytes of the alphabet
			b := make([]byte, 1+rng.Intn(12))
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		},
		func() string { // near-dates
			s := fmt.Sprintf("%04d-%02d-%02d", rng.Intn(10000), rng.Intn(14), rng.Intn(33))
			if rng.Intn(4) == 0 {
				b := []byte(s)
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
				s = string(b)
			}
			return s
		},
		func() string { // near-numbers around the int64 and float64 limits
			s := strconv.FormatUint(rng.Uint64(), 10) + strconv.Itoa(rng.Intn(1000))
			s = s[:1+rng.Intn(len(s))]
			switch rng.Intn(5) {
			case 0:
				s = "-" + s
			case 1:
				s = "+" + s
			case 2:
				s += "e" + strconv.Itoa(rng.Intn(700)-350)
			case 3:
				s = s[:len(s)/2] + "." + s[len(s)/2:]
			}
			return s
		},
	}
	for i := 0; i < 150_000; i++ {
		checkParse(t, shapes[i%len(shapes)]())
	}
}

// writeFile writes content to a fresh file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScanEdgeCases holds Scan to the frozen loop on the shapes a CSV can
// take at its edges: the same rows, or an error of the same class.
func TestScanEdgeCases(t *testing.T) {
	cases := []struct {
		name, content string
		rows          int
		parseErr      error // the *csv.ParseError's Err, nil for success
		line          int   // the line its record starts on
	}{
		{name: "empty file", content: ""},
		{name: "header only", content: "A,B\n"},
		{name: "header without newline", content: "A,B"},
		{name: "plain", content: "A,B\n1,x\n2,y\n", rows: 2},
		{name: "ragged row", content: "A,B\n1,x\n2\n", parseErr: csv.ErrFieldCount, line: 3},
		{name: "bare quote", content: "A,B\n1,x\"y\n", parseErr: csv.ErrBareQuote, line: 2},
		{name: "unterminated quote", content: "A,B\n1,\"xy\n2,z\n", parseErr: csv.ErrQuote, line: 2},
		{name: "bare quote in header", content: "A,B\"\n1,2\n", parseErr: csv.ErrBareQuote, line: 1},
		{name: "CRLF", content: "A,B\r\n1,x\r\n2,y\r\n", rows: 2},
		{name: "quoted newline", content: "A,B\n1,\"x\ny\"\n2,z\n", rows: 2},
		{name: "quoted comma and quote", content: "A,B\n1,\"x,\"\"y\"\"\"\n", rows: 1},
		{name: "trailing blank line", content: "A,B\n1,x\n\n", rows: 1},
		{name: "blank line inside", content: "A,B\n1,x\n\n2,y\n", rows: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeFile(t, "T.csv", c.content)
			want, wantErr := scanReference(path)
			// The constructor checks the header; build the recordset over a
			// well-formed file, then swap the content in.
			good := writeFile(t, "G.csv", "A,B\n")
			rs, err := data.NewFileRecordset("T", data.Schema{"A", "B"}, good)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(good, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			got, gotErr := rs.Scan()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("Scan error = %v, reference error = %v", gotErr, wantErr)
			}
			if c.parseErr == nil {
				if gotErr != nil {
					t.Fatalf("Scan: %v", gotErr)
				}
				if len(got) != c.rows || got.Digest() != want.Digest() {
					t.Fatalf("Scan = %v, reference %v, want %d rows", got, want, c.rows)
				}
				return
			}
			var pe, refPE *csv.ParseError
			if !errors.As(gotErr, &pe) || !errors.As(wantErr, &refPE) {
				t.Fatalf("Scan error %v (reference %v) does not wrap a *csv.ParseError", gotErr, wantErr)
			}
			if pe.Err != c.parseErr || pe.StartLine != c.line || *pe != *refPE {
				t.Errorf("ParseError = %+v, reference %+v, want %v at line %d", *pe, *refPE, c.parseErr, c.line)
			}
			for _, part := range []string{"recordset T", good} {
				if !strings.Contains(gotErr.Error(), part) {
					t.Errorf("error %q does not name %q", gotErr, part)
				}
			}
		})
	}
	t.Run("missing file", func(t *testing.T) {
		path := writeFile(t, "T.csv", "A\n")
		rs, err := data.NewFileRecordset("T", data.Schema{"A"}, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err = rs.Scan()
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "recordset T") {
			t.Fatalf("Scan of a removed file = %v, want a not-exist error naming the recordset", err)
		}
	})
}

// TestScanMatchesReference compares the one row reader with the frozen
// loop, by typed digest, on every CSV shipped under examples/ and on the
// files `etlgen -data` writes for one scenario of each size band.
func TestScanMatchesReference(t *testing.T) {
	var paths []string
	err := filepath.WalkDir(filepath.Join("..", "..", "examples"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".csv") {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		sc, err := generator.Generate(generator.CategoryConfig(cat, 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, tables := range []map[string]data.Rows{sc.Sources, sc.Lookups} {
			for name, rows := range tables {
				path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", cat, name))
				rs, err := data.NewFileRecordset(name, sc.Schemas[name], path)
				if err != nil {
					t.Fatal(err)
				}
				if err := rs.Load(rows); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, path)
			}
		}
	}
	total := 0
	for _, path := range paths {
		want, err := scanReference(path)
		if err != nil {
			t.Fatalf("reference scan of %s: %v", path, err)
		}
		_, got, err := data.ReadCSVFile(path)
		if err != nil {
			t.Fatalf("ReadCSVFile(%s): %v", path, err)
		}
		if len(got) != len(want) || got.Digest() != want.Digest() {
			t.Errorf("%s: %d rows digest %x, reference %d rows digest %x",
				path, len(got), got.Digest(), len(want), want.Digest())
		}
		total += len(got)
	}
	if total == 0 {
		t.Fatal("compared no rows")
	}
}

// mixedFixture writes a 1 000-row record file whose columns cover every
// branch of ParseValue: strings rejected on the first byte and on a later
// one, floats, ints, ISO dates, American dates (strings) and NULLs.
func mixedFixture(t *testing.T) (*data.FileRecordset, int) {
	t.Helper()
	const rows = 1000
	var b strings.Builder
	b.WriteString("CODE,NOTE,AMOUNT,QTY,DAY,USDATE,OPT\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "payload-%d,note %08x,%g,%d,2004-%02d-%02d,%02d/15/2004,%s\n",
			i%50, i*2654435761, float64(i)/8, i-500, 1+i%12, 1+i%28, 1+i%12,
			[]string{"NULL", "", "x"}[i%3])
	}
	path := writeFile(t, "MIXED.csv", b.String())
	rs, err := data.NewFileRecordset("MIXED",
		data.Schema{"CODE", "NOTE", "AMOUNT", "QTY", "DAY", "USDATE", "OPT"}, path)
	if err != nil {
		t.Fatal(err)
	}
	return rs, rows
}

// TestIngestAllocations states the ingest path's allocation ceilings
// (ROADMAP item 3): classifying a field allocates nothing unless it is a
// string that looks numeric, a scanned row costs its line's string, its
// record and its slot in a row slice sized once, and re-laying a record
// out costs the new record.
func TestIngestAllocations(t *testing.T) {
	var sink data.Value
	for _, s := range []string{"payload-12", "note 0a", "02/15/2004", "1234", "-7", "12.625", "2004-02-15", "NULL"} {
		if n := testing.AllocsPerRun(100, func() { sink = data.ParseValue(s) }); n != 0 {
			t.Errorf("ParseValue(%q) allocates %v times, want 0", s, n)
		}
	}
	_ = sink

	rs, rows := mixedFixture(t)
	var scanned data.Rows
	perRow := testing.AllocsPerRun(5, func() {
		var err error
		if scanned, err = rs.Scan(); err != nil {
			t.Fatal(err)
		}
	}) / float64(rows)
	if len(scanned) != rows {
		t.Fatalf("scanned %d rows, want %d", len(scanned), rows)
	}
	kinds := []data.Kind{data.KindString, data.KindString, data.KindFloat, data.KindInt, data.KindDate, data.KindString}
	for i, k := range kinds {
		if got := scanned[1][i].Kind(); got != k {
			t.Errorf("fixture column %d parsed as %s, want %s", i, got, k)
		}
	}
	if perRow > 3 {
		t.Errorf("Scan allocates %.2f times per row, want at most 3", perRow)
	}
	// In bytes: the 7-value record (224), the line's string (64) and one
	// slot of a row slice sized once (24), not grown by doubling (~60).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := rs.Scan(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); perRow > 330 {
		t.Errorf("Scan allocates %.0f bytes per row, want at most 330", perRow)
	}

	src := data.Schema{"A", "B", "C", "D"}
	proj := data.NewProjection(src, data.Schema{"D", "Z", "A"})
	rec := data.Record{data.NewInt(1), data.NewInt(2), data.NewInt(3), data.NewInt(4)}
	var out data.Record
	if n := testing.AllocsPerRun(100, func() { out = proj.Apply(rec) }); n != 1 {
		t.Errorf("Projection.Apply allocates %v times, want 1", n)
	}
	_ = out
}

// The row slice is sized from the first record's length. A first line
// shorter than the rest (NULLs, small numbers) oversizes it; the rows that
// come back must not keep that estimate alive, and a first line longer than
// the rest must still read every row.
func TestReadCSVFileRowsHeldAreRowsRead(t *testing.T) {
	long := strings.Repeat("x", 400)
	for name, first := range map[string]string{"short first line": "1,2\n", "long first line": long + long + ",2\n"} {
		var b strings.Builder
		b.WriteString("A,B\n" + first)
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&b, "%s,%d\n", long, i)
		}
		_, rows, err := data.ReadCSVFile(writeFile(t, "SKEW.csv", b.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2001 || rows[2000][1].Int() != 1999 {
			t.Fatalf("%s: read %d rows, want 2001 ending in 1999", name, len(rows))
		}
		if cap(rows) > 2*len(rows) {
			t.Errorf("%s: %d rows held in a slice of %d", name, len(rows), cap(rows))
		}
	}
}

// TestProjectionMatchesProject checks Projection.Apply against
// Record.Project on random schema pairs, including attributes the source
// lacks, attributes it repeats, and records shorter than their schema.
func TestProjectionMatchesProject(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names := []string{"A", "B", "C", "D", "E", "F"}
	randSchema := func() data.Schema {
		s := make(data.Schema, rng.Intn(7))
		for i := range s {
			s[i] = names[rng.Intn(len(names))] // repeats allowed
		}
		return s
	}
	for i := 0; i < 5000; i++ {
		src, target := randSchema(), randSchema()
		rec := make(data.Record, rng.Intn(len(src)+2))
		for j := range rec {
			rec[j] = data.NewInt(int64(rng.Intn(100)))
		}
		want := rec.Project(src, target)
		got := data.NewProjection(src, target).Apply(rec)
		if len(got) != len(want) {
			t.Fatalf("src %v target %v rec %v: Apply has %d values, Project %d", src, target, rec, len(got), len(want))
		}
		for j := range want {
			if !sameValue(got[j], want[j]) {
				t.Fatalf("src %v target %v rec %v: Apply = %v, Project = %v", src, target, rec, got, want)
			}
		}
	}
}

// TestWriteCSVFileFailureLeavesNothing covers WriteCSVFile's failure
// contract: a write that fails after its rows are on disk (the final
// rename cannot replace a non-empty directory) removes its temp file and
// leaves what was at the path untouched, and a successful write leaves
// exactly the target, readable back row for row.
func TestWriteCSVFileFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	schema := data.Schema{"K", "V"}
	rows := data.Rows{{data.NewInt(1), data.Null}, {data.NewString("a,b"), data.NewFloat(2.5)}}

	blocked := filepath.Join(dir, "blocked.csv")
	if err := os.MkdirAll(filepath.Join(blocked, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := data.WriteCSVFile(blocked, schema, rows); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(blocked, "occupant")); err != nil {
		t.Errorf("failed write disturbed what was at the path: %v", err)
	}
	if err := data.WriteCSVFile(filepath.Join(dir, "missing", "x.csv"), schema, rows); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}

	ok := filepath.Join(dir, "ok.csv")
	if err := data.WriteCSVFile(ok, schema, rows); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "blocked.csv ok.csv" {
		t.Errorf("directory holds %q after one failed and one successful write; want only the directory and the target", got)
	}
	header, back, err := data.ReadCSVFile(ok)
	if err != nil || !header.Equal(schema) || len(back) != len(rows) {
		t.Fatalf("read back header %v, %d rows, %v", header, len(back), err)
	}
	for i := range rows {
		if back[i].Key() != rows[i].Key() {
			t.Errorf("row %d read back as %s, wrote %s", i, back[i], rows[i])
		}
	}
}
