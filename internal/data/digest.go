package data

import (
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"os"
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
