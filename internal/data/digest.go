package data

import (
	"cmp"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// The digests below name content: rows (Rows.Digest) and whole recordsets
// (Recordset.Digest). They are the data half of the shared-work cache key,
// and the equivalence oracle and the property suites compare rows through
// Rows.Digest, so their definition is part of the bit-identity contract. They
// fold words through mixWord, as HashKey does, but tell apart what a key puts
// in one class: Int(7) from Float(7), one NaN from another.
const (
	tagFloat = 0x94d049bb133111eb // a float by its bits; tagNum tags an int by its value
	// One per recordset kind, folded first: a file names bytes, a table values.
	tagFile   = 0xbf58476d1ce4e5b9
	tagMemory = 0x369dea0f31a53f85
)

// Digest returns an order-sensitive digest of the rows: every typed value is
// folded in record order (numbers by kind and raw payload, the rest as
// hashValue does), each record behind its length, so two row slices digest
// equal exactly when they hold the same typed values in the same positions
// (up to a 64-bit collision). An empty and a nil slice digest equal.
func (rows Rows) Digest() uint64 {
	h := uint64(hashInit)
	for _, rec := range rows {
		h = mixWord(h, uint64(len(rec)))
		for i := range rec {
			v := &rec[i]
			switch k := v.kind(); k {
			case KindInt:
				h = mixWord(h+tagNum, uint64(v.n))
			case KindFloat:
				h = mixWord(h+tagFloat, uint64(v.n))
			default:
				h = hashValue(h, k, v)
			}
		}
	}
	return mixWord(h, uint64(len(rows)))
}

// SameMultiset returns nil when rs and o hold the same records, each as
// often, in any order: the paper's empirical notion of equivalent
// workflows, "based on the same input, produce the same output" (§2.2).
// Two records are the same when their Digests are, so kinds count: Int(2)
// is not Float(2). Otherwise the error names one record, with its kinds,
// that one side holds more often than the other.
func (rs Rows) SameMultiset(o Rows) error {
	a, b := sortedByDigest(rs), sortedByDigest(o)
	for len(a) > 0 || len(b) > 0 {
		head := b
		if len(b) == 0 || len(a) > 0 && a[0].d <= b[0].d {
			head = a
		}
		d, r := head[0].d, head[0].r
		na, nb := leading(a, d), leading(b, d)
		if na != nb {
			kinds := make([]string, len(r))
			for i, v := range r {
				kinds[i] = v.Kind().String()
			}
			return fmt.Errorf("record %v of kinds (%s): %d× in the first rows, %d× in the second",
				r, strings.Join(kinds, ", "), na, nb)
		}
		a, b = a[na:], b[nb:]
	}
	return nil
}

type digested struct {
	d uint64
	r Record
}

func sortedByDigest(rows Rows) []digested {
	out := make([]digested, len(rows))
	for i, r := range rows {
		out[i] = digested{Rows{r}.Digest(), r}
	}
	slices.SortFunc(out, func(x, y digested) int { return cmp.Compare(x.d, y.d) })
	return out
}

// leading counts the records at the head of s whose digest is d.
func leading(s []digested, d uint64) int {
	n := 0
	for n < len(s) && s[n].d == d {
		n++
	}
	return n
}

// digestFile folds the bytes of the record file at path, a word at a time
// through a buffer that stays on the stack whatever the file's size, after
// refusing a header row that is not schema (an empty file has none).
func digestFile(path string, schema Schema) (uint64, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	header, err := csv.NewReader(fh).Read()
	if err == nil && !schema.Equal(header) {
		err = fmt.Errorf("header %v does not match schema %v", Schema(header), schema)
	}
	if err == nil || err == io.EOF {
		_, err = fh.Seek(0, io.SeekStart)
	}
	if err != nil {
		return 0, err
	}
	h, size := mixWord(hashInit, tagFile), 0
	var buf [32<<10 + 8]byte
	fill := 0 // bytes read and not yet folded: under 8 between reads
	for {
		n, err := fh.Read(buf[fill : len(buf)-8])
		fill, size = fill+n, size+n
		if err == io.EOF {
			clear(buf[fill : fill+8]) // the last word is zero-padded; the size, folded last, says by how much
			fill += 7
		} else if err != nil {
			return 0, err
		}
		whole := fill &^ 7
		for i := 0; i < whole; i += 8 {
			h = mixWord(h, binary.LittleEndian.Uint64(buf[i:]))
		}
		if err == io.EOF {
			return mixWord(h, uint64(size)), nil
		}
		fill = copy(buf[:], buf[whole:fill])
	}
}
