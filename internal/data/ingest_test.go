package data_test

import (
	"bytes"
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
	"sync"
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
	"-0.0", "-.0", "+.5", "1.2.3", "1..2", "000000000000001.5", "-000", "+0.", "-.",
	"123456789012345", "1234567890123456", "-999999999999999", "12345678.9012345", "1234567.89012345",
	"123456789.0123456", ".123456789012345", ".1234567890123456", "-0.000000000000001", "999999999999999.",
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
// string that looks numeric, and a scanned or re-laid row costs a share of
// the chunk its record is cut from — the text its strings are cut from and
// the row slice are allocated once a file.
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
	if perRow > 0.1 {
		t.Errorf("Scan allocates %.2f times per row, want at most 0.1", perRow)
	}
	// In bytes: the 7-value record (112), the line's share of the file's
	// text (64) and one slot of a row slice sized once (24), not grown by
	// doubling (~60): 203 on the fixture, 211 under -race.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := rs.Scan(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); perRow > 220 {
		t.Errorf("Scan allocates %.0f bytes per row, want at most 220", perRow)
	}

	src := data.Schema{"A", "B", "C", "D"}
	proj := data.NewProjection(src, data.Schema{"D", "Z", "A"})
	rec := data.Record{data.NewInt(1), data.NewInt(2), data.NewInt(3), data.NewInt(4)}
	var recs data.Chunks
	if n := testing.AllocsPerRun(1000, func() { proj.Cut(&recs, rec) }); n != 0 {
		t.Errorf("Projection.Cut allocates %v times a record, want 0 (one a chunk)", n)
	}
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

// checkRead holds ReadCSVFile over content to the frozen loop: the same
// header and the same rows value for value, or no rows and the same
// *csv.ParseError — line, column and cause.
func checkRead(t *testing.T, content []byte) {
	t.Helper()
	path := writeFile(t, "F.csv", string(content))
	want, wantErr := scanReference(path)
	header, got, err := data.ReadCSVFile(path)
	if wantErr != nil {
		var pe, refPE *csv.ParseError
		if !errors.As(wantErr, &refPE) || !errors.As(err, &pe) || *pe != *refPE {
			t.Fatalf("ReadCSVFile error = %v, reference %v", err, wantErr)
		}
		if header != nil || got != nil {
			t.Fatalf("ReadCSVFile returned header %v and %d rows beside %v", header, len(got), err)
		}
		return
	}
	if err != nil {
		t.Fatalf("ReadCSVFile: %v, reference read %d rows", err, len(want))
	}
	// The reference's header: nil when the file holds no record at all.
	ref, _ := csv.NewReader(bytes.NewReader(content)).Read()
	if (header == nil) != (ref == nil) || !header.Equal(ref) {
		t.Fatalf("ReadCSVFile header = %q, reference %q", header, ref)
	}
	sameRows(t, got, want)
}

// sameRows reports to t the first place got is not want, row for row and
// value for value.
func sameRows(t *testing.T, got, want data.Rows) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("read %d rows, reference %d", len(got), len(want))
		return
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Errorf("row %d has %d values, reference %d", i, len(got[i]), len(want[i]))
			return
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Errorf("row %d value %d = %s %v, reference %s %v",
					i, j, got[i][j].Kind(), got[i][j], want[i][j].Kind(), want[i][j])
				return
			}
		}
	}
}

// FuzzReadCSVFile reads arbitrary bytes as a record file: whichever of its
// two readers ReadCSVFile takes, the answer is encoding/csv's.
func FuzzReadCSVFile(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, content []byte) {
		checkRead(t, content)
	})
}

// csvSeeds are the shapes a record file takes at its edges, the seed corpus
// of the fuzz tests that read one.
var csvSeeds = []string{
	"A,B\n1,\"x,y\"\n", "A,B\n1,\"x\"\"y\"\n", "A,B\n1,\"x\ny\"\n2,z\n", // quoting
	"A,B\r\n1,x\r\n", "A,B\n1,x\ry\n", "A,B\n1,x\r", "A,B\n1,x\"y\n", "A,B\n1,\"xy\n2,z\n",
	"\n\nA,B\n1,x\n", "A,B\n\n\n1,x\n\n2,y\n", "A,B\n1,x\n\n\n", "\n", "\n\n\n", // blank lines
	"A,B\n", "A,B", "", "A,B\n1,x", "A,B\n1,x\n2\n", "A,B\n1,x,y\n", "A,B\n1\n2,y\n", // ragged
	"A,B\n1,\x00\n", "\xef\xbb\xbfA,B\n1,x\n", "A\n1\n\nNULL\n x \n", "A\n,\n", "A,B\n,\n ,\n",
	"A,B\n1.5,-0.0\n007,2004-02-15\ntrue,null\n", "A,B\n1,\xff\xfe\n", ",\n,\n", "A,A\n1,2\n",
}

// partsFixture is a record file of fixed-width lines whose body is just over
// parts part sizes. The first record's string is pad bytes longer than "n",
// so every later record, and with it every cut, moves by as much; blank
// adds an empty line after every 500th record; last is appended as it is.
func partsFixture(parts, pad int, blank bool, last string) []byte {
	key := partsKey{parts, blank}
	if partsBodies[key] == nil {
		var b bytes.Buffer
		for i := 1; b.Len() < parts*data.PartBytes+100; i++ {
			fmt.Fprintf(&b, "%07d,note-%07d,%d.25\n", i, i*7, i%10)
			if blank && i%500 == 0 {
				b.WriteString("\n")
			}
		}
		partsBodies[key] = b.Bytes()
	}
	first := "ID,NOTE,AMOUNT\n0000000,n" + strings.Repeat("x", pad) + ",0.5\n"
	return append(append([]byte(first), partsBodies[key]...), last...)
}

type partsKey struct {
	parts int
	blank bool
}

var partsBodies = map[partsKey][]byte{}

// TestReadCSVFileParts reads files of one, two and three parts at several
// GOMAXPROCS, their length swept byte by byte so that a cut falls on every
// offset of a record: the rows are the reference's in file order, with blank
// lines in every part too, and a ragged line in the last part alone fails
// the whole read with encoding/csv's error for that line.
func TestReadCSVFileParts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const line = len("0000001,note-0000007,1.25\n")
	for parts := 1; parts <= 3; parts++ {
		// The reference reads the unpadded file; padding changes one value.
		path := writeFile(t, "F.csv", string(partsFixture(parts, 0, false, "")))
		want, err := scanReference(path)
		if err != nil || len(want) < parts*data.PartBytes/line {
			t.Fatalf("reference read %d rows, %v", len(want), err)
		}
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			// Cut i of k moves i/k of a byte for every byte of padding; one
			// part has no cut to move.
			sweep := 0
			if k := min(procs, parts); k > 1 {
				sweep = k * line
			}
			for pad := 0; pad <= sweep; pad++ {
				if err := os.WriteFile(path, partsFixture(parts, pad, false, ""), 0o644); err != nil {
					t.Fatal(err)
				}
				_, got, err := data.ReadCSVFile(path)
				if err != nil {
					t.Fatal(err)
				}
				want[0][1] = data.NewString("n" + strings.Repeat("x", pad))
				if sameRows(t, got, want); t.Failed() {
					t.Fatalf("GOMAXPROCS %d, %d parts, %d bytes of padding", procs, parts, pad)
				}
			}
			checkRead(t, partsFixture(parts, 3, true, "\n\n"))
			checkRead(t, partsFixture(parts, 3, true, "9999999,unterminated,1"))
			checkRead(t, partsFixture(parts, 3, false, "9999999,ragged\n"))
			checkRead(t, partsFixture(parts, 3, false, "9999999,ragged,1,2"))
		}
	}
	// A line longer than several parts: every cut inside it is the one after
	// it, or, inside a last line without its newline, the end of the text.
	small := strings.Repeat("1,a,2\n", 2000)
	giant := "7," + strings.Repeat("g", 4*data.PartBytes) + ",8"
	checkRead(t, []byte("A,B,C\n"+small+giant+"\n"+small))
	checkRead(t, []byte("A,B,C\n"+small+giant))
}

// A Scan leaves no goroutine behind, whichever way it returns — the engine's
// cancel and fault tests count goroutines around runs that scan — and one
// FileRecordset may be scanned from several goroutines at once.
func TestReadCSVFileJoinsItsParts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	files := map[string][]byte{
		"plain.csv":  partsFixture(4, 0, true, ""),
		"quoted.csv": partsFixture(4, 0, false, "1,\"quoted, so encoding/csv reads it\",2\n"),
		"ragged.csv": partsFixture(4, 0, false, "1,2\n"),
	}
	before := runtime.NumGoroutine()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rows, err := data.ReadCSVFile(path)
		if failed := err != nil; failed != (name == "ragged.csv") || failed != (rows == nil) {
			t.Errorf("%s: %d rows, %v", name, len(rows), err)
		}
		for wait := 0; runtime.NumGoroutine() > before && wait < 400; wait++ {
			time.Sleep(5 * time.Millisecond) // a part that has called Done may still be exiting
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines before the read, %d after", name, before, after)
		}
	}

	rs, err := data.NewFileRecordset("PLAIN", data.Schema{"ID", "NOTE", "AMOUNT"}, filepath.Join(dir, "plain.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rs.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := rs.Scan(); err != nil || len(got) != len(want) || got.Digest() != want.Digest() {
				t.Errorf("concurrent Scan: %d rows, %v; want %d rows", len(got), err, len(want))
			}
		}()
	}
	wg.Wait()
}

// TestProjectionMatchesProject checks Projection.Cut against
// project, a re-layout that looks each attribute up by name, on random
// schema pairs, including attributes the source lacks, attributes it
// repeats, and records shorter than their schema.
func TestProjectionMatchesProject(t *testing.T) {
	project := func(r data.Record, src, target data.Schema) data.Record {
		out := make(data.Record, len(target))
		for i, a := range target {
			if j := src.Index(a); j >= 0 && j < len(r) {
				out[i] = r[j]
			} else {
				out[i] = data.Null
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(13))
	names := []string{"A", "B", "C", "D", "E", "F"}
	randSchema := func() data.Schema {
		s := make(data.Schema, rng.Intn(7))
		for i := range s {
			s[i] = names[rng.Intn(len(names))] // repeats allowed
		}
		return s
	}
	var recs data.Chunks
	for i := 0; i < 5000; i++ {
		src, target := randSchema(), randSchema()
		rec := make(data.Record, rng.Intn(len(src)+2))
		for j := range rec {
			rec[j] = data.NewInt(int64(rng.Intn(100)))
		}
		want := project(rec, src, target)
		got := data.NewProjection(src, target).Cut(&recs, rec)
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("src %v target %v rec %v: Cut has %d values (cap %d), project %d", src, target, rec, len(got), cap(got), len(want))
		}
		for j := range want {
			if !sameValue(got[j], want[j]) {
				t.Fatalf("src %v target %v rec %v: Cut = %v, project = %v", src, target, rec, got, want)
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
	if back.Digest() != rows.Digest() {
		t.Errorf("read back %v, wrote %v", back, rows)
	}
}
