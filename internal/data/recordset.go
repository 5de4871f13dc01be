package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Recordset is any data store that provides a flat record schema (paper
// §2.1). Source recordsets are scanned; target recordsets are loaded.
type Recordset interface {
	// Name returns the recordset's unique name within a workflow.
	Name() string
	// Schema returns the flat record schema.
	Schema() Schema
	// Scan returns all records: a fresh slice whose records the caller may
	// retain but must not mutate. The engine calls it from a goroutine other
	// than Run's caller (sources are read ahead), one call at a time per
	// recordset unless a workflow names it as a source and as a lookup too.
	// A Scan that starts goroutines of its own joins them before it returns.
	Scan() (Rows, error)
	// Digest names the schema and the rows Scan would return without reading
	// them out: two recordsets of one kind with equal digests Scan to rows
	// equal value for value; anything else promises nothing. It fails where
	// Scan refuses the whole recordset; content it does not parse may still
	// fail Scan. A type embedding a Recordset inherits a Digest true of it.
	Digest() (uint64, error)
	// Load appends records to the recordset.
	Load(rows Rows) error
	// Truncate removes all records.
	Truncate() error
	// Count returns the number of stored records.
	Count() (int, error)
}

// MemoryRecordset is an in-memory relational table. It is safe for
// concurrent use.
type MemoryRecordset struct {
	name   string
	schema Schema

	mu   sync.RWMutex
	rows Rows
}

// NewMemoryRecordset creates an empty in-memory table.
func NewMemoryRecordset(name string, schema Schema) *MemoryRecordset {
	return &MemoryRecordset{name: name, schema: schema.Clone()}
}

// Name implements Recordset.
func (m *MemoryRecordset) Name() string { return m.name }

// Schema implements Recordset.
func (m *MemoryRecordset) Schema() Schema { return m.schema.Clone() }

// Scan implements Recordset.
func (m *MemoryRecordset) Scan() (Rows, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(Rows, len(m.rows))
	copy(out, m.rows)
	return out, nil
}

// Digest implements Recordset over the attribute names and the typed values,
// read in place.
func (m *MemoryRecordset) Digest() (uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := mixWord(hashInit, tagMemory)
	for _, attr := range m.schema {
		v := NewString(attr)
		h = hashValue(h, KindString, &v)
	}
	return mixWord(h, m.rows.Digest()), nil
}

// Load implements Recordset. Each record must match the schema's arity.
func (m *MemoryRecordset) Load(rows Rows) error {
	for i, r := range rows {
		if len(r) != len(m.schema) {
			return fmt.Errorf("recordset %s: record %d has %d values, schema has %d attributes",
				m.name, i, len(r), len(m.schema))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = append(m.rows, rows...)
	return nil
}

// Truncate implements Recordset.
func (m *MemoryRecordset) Truncate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = nil
	return nil
}

// Count implements Recordset.
func (m *MemoryRecordset) Count() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows), nil
}

// MustLoad loads rows and panics on error; intended for tests and examples.
func (m *MemoryRecordset) MustLoad(rows Rows) *MemoryRecordset {
	if err := m.Load(rows); err != nil {
		panic(err)
	}
	return m
}

// FileRecordset is a CSV-backed record file with a header row. It fulfils
// the paper's second popular recordset kind (§2.1). All operations read or
// rewrite the file; it is not safe for concurrent use across processes.
type FileRecordset struct {
	name   string
	schema Schema
	path   string
}

// NewFileRecordset opens or creates a CSV record file at path. If the file
// exists, its header must match schema; if it does not exist, it is created
// with the header.
func NewFileRecordset(name string, schema Schema, path string) (*FileRecordset, error) {
	f := &FileRecordset{name: name, schema: schema.Clone(), path: path}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := f.Truncate(); err != nil {
			return nil, err
		}
		return f, nil
	}
	header, err := f.readHeader()
	if err != nil {
		return nil, err
	}
	if !Schema(header).Equal(schema) {
		return nil, fmt.Errorf("record file %s: header %v does not match schema %v", path, header, schema)
	}
	return f, nil
}

// Name implements Recordset.
func (f *FileRecordset) Name() string { return f.name }

// Schema implements Recordset.
func (f *FileRecordset) Schema() Schema { return f.schema.Clone() }

func (f *FileRecordset) readHeader() ([]string, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	r := csv.NewReader(fh)
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("record file %s: reading header: %w", f.path, err)
	}
	return header, nil
}

// Scan implements Recordset. Fields are read by position, so a file whose
// header no longer is the schema (rewritten since it was bound) is refused.
// The rows' strings are cut from one copy of the file's text (ReadCSVFile).
func (f *FileRecordset) Scan() (Rows, error) {
	header, rows, err := ReadCSVFile(f.path)
	if err == nil && header != nil && !header.Equal(f.schema) {
		err = fmt.Errorf("header %v does not match schema %v", header, f.schema)
	}
	if err != nil {
		return nil, fmt.Errorf("recordset %s: record file %s: %w", f.name, f.path, err)
	}
	return rows, nil
}

// Digest implements Recordset over the file's bytes, the header row checked
// as Scan checks it and the body unparsed: files that spell the same rows
// differently digest apart, and a body Scan cannot parse is Scan's to refuse.
func (f *FileRecordset) Digest() (uint64, error) {
	d, err := digestFile(f.path, f.schema)
	if err != nil {
		return 0, fmt.Errorf("recordset %s: record file %s: %w", f.name, f.path, err)
	}
	return d, nil
}

// ReadCSVFile reads a record file: a header row, then one typed record per
// line. Every CSV the system reads back as rows — a source or lookup file,
// a checkpoint stage — goes through this function, so they agree on
// quoting, line endings, the field-count check and how a field becomes a
// Value: ParseValue, by its text (WriteRowFile is for rows that must keep
// their kinds).
//
// The file is read once, into one string, which a record's strings are
// slices of and which lives until the last of them dies. A text without a
// quote or a carriage return is parsed in parts, on up to GOMAXPROCS
// goroutines joined before the return (readPlain); any other, and any the
// parts give up on, is encoding/csv's to read or to refuse (readQuoted).
// An empty file has a nil header and no rows; a file holding only a header
// has no rows. Errors come back unwrapped for the caller to attribute: the
// *fs.PathError of the open, or the *csv.ParseError, with line and column,
// of a malformed line.
func ReadCSVFile(path string) (Schema, Rows, error) {
	text, err := readText(path)
	if err != nil {
		return nil, nil, err
	}
	header, rows, ok := readPlain(text)
	if !ok {
		if header, rows, err = readQuoted(text); err != nil {
			return nil, nil, err
		}
	}
	if cap(rows) > 2*len(rows) { // blank lines or a short first line oversized it
		rows = append(Rows(nil), rows...)
	}
	return header, rows, nil
}

// readText reads a file into one string allocated once, at the file's size,
// through a buffer small enough to stay on the stack.
func readText(path string) (string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer fh.Close()
	var text strings.Builder
	if st, err := fh.Stat(); err == nil {
		text.Grow(int(st.Size()))
	}
	var buf [8 << 10]byte
	for {
		n, err := fh.Read(buf[:])
		text.Write(buf[:n])
		if err == io.EOF {
			return text.String(), nil
		}
		if err != nil {
			return "", err
		}
	}
}

// partBytes is the least text worth a goroutine of its own; like the
// engine's batch size it is a constant, not an option.
const partBytes = 128 << 10

// readPlain reads text in the plain dialect of a record file: no quote and
// no carriage return, so a newline always ends a record, a comma always ends
// a field and a cut after any newline is a cut between records. It reports
// false when the text holds either byte, no header or a line whose field
// count is not the header's: what to make of those is encoding/csv's to say.
func readPlain(text string) (Schema, Rows, bool) {
	if strings.IndexByte(text, '"') >= 0 || strings.IndexByte(text, '\r') >= 0 {
		return nil, nil, false
	}
	line, body, _ := strings.Cut(strings.TrimLeft(text, "\n"), "\n")
	if line == "" {
		return nil, nil, false
	}
	header := strings.Split(line, ",")
	if body == "" {
		return header, nil, true
	}
	// Part i ends after the first newline at or past i+1 k-ths of the body,
	// or with the body. Its newlines bound its records, so one row slice is
	// sized for all parts and each parses into its own rows[row[i]:row[i+1]].
	k := max(1, min(runtime.GOMAXPROCS(0), len(body)/partBytes))
	cut, row, got := make([]int, k+1), make([]int, k+1), make([]int, k)
	for i := 1; i <= k; i++ {
		cut[i] = len(body)
		if j := strings.IndexByte(body[len(body)/k*i:], '\n'); i < k && j >= 0 {
			cut[i] = len(body)/k*i + j + 1
		}
		part := body[cut[i-1]:cut[i]]
		row[i] = row[i-1] + strings.Count(part, "\n")
		if part != "" && part[len(part)-1] != '\n' {
			row[i]++ // the text's last line
		}
	}
	rows := make(Rows, row[k])
	parse := func(i int) {
		got[i] = parsePlain(body[cut[i]:cut[i+1]], len(header), rows[row[i]:row[i+1]])
	}
	var wg sync.WaitGroup
	for i := 0; i < k-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parse(i)
		}()
	}
	parse(k - 1) // the last part is the caller's own
	wg.Wait()
	w := 0
	for i, n := range got {
		if n < 0 {
			return nil, nil, false
		}
		if w != row[i] { // an earlier part skipped blank lines and left a gap
			copy(rows[w:], rows[row[i]:row[i]+n])
		}
		w += n
	}
	return header, rows[:w], true
}

// parsePlain parses part, whole lines of a plain text, into one record of n
// values per non-blank line and returns how many of rows it filled, or -1
// at a line that has not n fields.
func parsePlain(part string, n int, rows Rows) int {
	w := 0
	for part != "" {
		line, rest, _ := strings.Cut(part, "\n")
		part = rest
		if line == "" {
			continue // as encoding/csv skips it
		}
		rec := make(Record, n)
		for f := 0; f < n-1; f++ {
			i := strings.IndexByte(line, ',')
			if i < 0 {
				return -1
			}
			rec[f], line = ParseValue(line[:i]), line[i+1:]
		}
		if strings.IndexByte(line, ',') >= 0 {
			return -1
		}
		rec[n-1] = ParseValue(line)
		rows[w] = rec
		w++
	}
	return w
}

// readQuoted reads text with encoding/csv: quoting, CRLF, embedded newlines,
// the field-count check and every *csv.ParseError are the library's.
func readQuoted(text string) (Schema, Rows, error) {
	r := csv.NewReader(strings.NewReader(text))
	header, err := r.Read()
	if err == io.EOF {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	r.ReuseRecord = true // after the header, whose slice is kept
	var rows Rows
	start := r.InputOffset()
	for {
		fields, err := r.Read()
		if err == io.EOF {
			return header, rows, nil
		}
		if err != nil {
			return nil, nil, err
		}
		if rows == nil {
			// Sized once, as if every record were as long as the first; what a
			// short first line claims is bounded here and given back by the caller.
			rows = make(Rows, 0, min((int64(len(text))-start)/(r.InputOffset()-start)+1, 1<<20))
		}
		rec := make(Record, len(fields))
		for i, s := range fields {
			rec[i] = ParseValue(s)
		}
		rows = append(rows, rec)
	}
}

// WriteCSVFile writes a record file ReadCSVFile reads back, whole or not at
// all (writeFileAtomic): the schema as header row, then one line per
// record, NULL for nulls. Every CSV the system writes whole — a new or
// truncated record file, a checkpoint stage — goes through this function.
func WriteCSVFile(path string, schema Schema, rows Rows) error {
	return writeFileAtomic(path, func(f *os.File) error {
		w := csv.NewWriter(f)
		if err := w.Write(schema); err != nil {
			return err
		}
		for _, rec := range rows {
			if err := w.Write(recordFields(rec)); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	})
}

// writeFileAtomic has write fill a temp file in path's directory and renames
// it over path once closed, so a reader sees the old file or the whole new
// one, never a torn write; on any failure the temp file is removed and path
// is left as it was.
func writeFileAtomic(path string, write func(*os.File) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// CreateTemp's 0600 suits scratch files; a record file is for others to read.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load implements Recordset by appending rows to the CSV file: after the
// header when the file is empty, which Scan reads as no header and no rows,
// and on a line of their own when the last line lacks its newline.
func (f *FileRecordset) Load(rows Rows) error {
	for i, r := range rows {
		if len(r) != len(f.schema) {
			return fmt.Errorf("record file %s: record %d has %d values, schema has %d attributes",
				f.name, i, len(r), len(f.schema))
		}
	}
	fh, err := os.OpenFile(f.path, os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return err
	}
	w := csv.NewWriter(fh)
	if last := []byte{'\n'}; st.Size() == 0 {
		err = w.Write(f.schema)
	} else if _, err = fh.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
		_, err = fh.Write([]byte{'\n'})
	}
	if err != nil {
		return err
	}
	for _, rec := range rows {
		if err := w.Write(recordFields(rec)); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// Truncate implements Recordset by rewriting the file with only the header.
func (f *FileRecordset) Truncate() error { return WriteCSVFile(f.path, f.schema, nil) }

// Count implements Recordset.
func (f *FileRecordset) Count() (int, error) {
	rows, err := f.Scan()
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

func recordFields(rec Record) []string {
	fields := make([]string, len(rec))
	for i, v := range rec {
		if v.IsNull() {
			fields[i] = "NULL"
		} else {
			fields[i] = v.String()
		}
	}
	return fields
}

// SortRows sorts rows in place by the given attribute positions, using
// Value.Compare lexicographically. It is a stable sort so that equal keys
// preserve input order.
func SortRows(rows Rows, positions []int) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, p := range positions {
			if c := rows[i][p].Compare(rows[j][p]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
