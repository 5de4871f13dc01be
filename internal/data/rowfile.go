package data

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// A row file holds a schema and typed rows as they are in memory, so what
// is read back has the kinds that were written (CSV cannot: its field 007
// reads back as Int(7) whether an Int or a String was written). Layout:
// "ETLR", a version byte, the column count and each name, the row count,
// then per value one kind byte and nothing (NULL), a length and that many
// bytes (String) or the 8-byte little-endian payload (Int, Bool, Date,
// Float bits); last the IEEE CRC-32 of all that, little-endian. Counts and
// lengths are minimal uvarints, so one content has one encoding; the
// version goes up with any change to the layout or to Kind's numbering.
const rowFileMagic, rowFileChunk = "ETLR\x01", 64 << 10

// RowFileError reports a file that is not what WriteRowFile writes; Offset
// is where in the file the damage shows.
type RowFileError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *RowFileError) Error() string {
	return fmt.Sprintf("row file %s: offset %d: %s", e.Path, e.Offset, e.Reason)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// WriteRowFile writes schema and rows to path, whole or not at all, as
// WriteCSVFile does. A record whose arity is not the schema's is refused:
// the layout has no row boundaries to read it back by.
func WriteRowFile(path string, schema Schema, rows Rows) error {
	return writeFileAtomic(path, func(f *os.File) error {
		buf := append(make([]byte, 0, rowFileChunk+4096), rowFileMagic...)
		buf = binary.AppendUvarint(buf, uint64(len(schema)))
		for _, name := range schema {
			buf = appendString(buf, name)
		}
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		var sum uint32
		for i, rec := range rows {
			if len(rec) != len(schema) || len(rec) == 0 {
				return fmt.Errorf("row file %s: record %d has %d values, schema has %d attributes", path, i, len(rec), len(schema))
			}
			for c := range rec {
				v := &rec[c]
				k := v.kind()
				switch buf = append(buf, byte(k)); k {
				case KindNull:
				case KindString:
					buf = appendString(buf, v.str())
				default:
					buf = binary.LittleEndian.AppendUint64(buf, uint64(v.n))
				}
			}
			if len(buf) >= rowFileChunk {
				sum = crc32.Update(sum, crc32.IEEETable, buf)
				if _, err := f.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		sum = crc32.Update(sum, crc32.IEEETable, buf)
		_, err := f.Write(binary.LittleEndian.AppendUint32(buf, sum))
		return err
	})
}

// rowDecoder walks a row file's bytes and keeps the first damage it finds.
type rowDecoder struct {
	path string
	buf  []byte
	off  int
	err  error
}

func (d *rowDecoder) fail(off int, reason string) {
	if d.err == nil {
		d.err = &RowFileError{d.path, int64(off), reason}
	}
}

// count reads how many things of at least size bytes each follow; one the
// rest of the file cannot hold is damage, so no count allocates beyond it.
func (d *rowDecoder) count(size int) int {
	x, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case d.err != nil:
	case n <= 0 || n > 1 && d.buf[d.off+n-1] == 0:
		d.fail(d.off, "bad or non-minimal uvarint")
	case x > uint64(len(d.buf)-d.off-n)/uint64(size):
		d.fail(d.off, "short read")
	default:
		d.off += n
		return int(x)
	}
	return 0
}

func (d *rowDecoder) str() string {
	n := d.count(1)
	d.off += n
	return string(d.buf[d.off-n : d.off])
}

func (d *rowDecoder) value() Value {
	rest := d.buf[d.off:]
	switch {
	case len(rest) == 0:
		d.fail(d.off, "short read")
	case Kind(rest[0]) == KindNull:
		d.off++
	case Kind(rest[0]) == KindString:
		d.off++
		return NewString(d.str())
	case Kind(rest[0]) > KindDate:
		d.fail(d.off, fmt.Sprintf("unknown kind %d", rest[0]))
	case len(rest) < 9:
		d.fail(d.off, "short read")
	default:
		d.off += 9
		return tagged(Kind(rest[0]), int64(binary.LittleEndian.Uint64(rest[1:])))
	}
	return Null
}

// ReadRowFile reads a file WriteRowFile wrote. Anything else — bad magic or
// version, a checksum that does not match, an unknown kind, a count the file
// is too short for, bytes after the last row — is a *RowFileError and no
// rows; a file that cannot be read is the *fs.PathError of the attempt.
func ReadRowFile(path string) (Schema, Rows, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	body, n := len(raw)-4, len(rowFileMagic)
	if body < n {
		return nil, nil, &RowFileError{path, 0, "short read: no room for header and checksum"}
	}
	d := rowDecoder{path: path, buf: raw[:body], off: n}
	switch {
	case string(raw[:n-1]) != rowFileMagic[:n-1]:
		d.fail(0, "bad magic")
	case raw[n-1] != rowFileMagic[n-1]:
		d.fail(n-1, fmt.Sprintf("unknown version %d", raw[n-1]))
	case crc32.ChecksumIEEE(raw[:body]) != binary.LittleEndian.Uint32(raw[body:]):
		d.fail(body, "checksum mismatch")
	}
	schema := make(Schema, d.count(1))
	for i := range schema {
		schema[i] = d.str()
	}
	// Rows of no columns, counted at a byte each, end as trailing bytes.
	rows := make(Rows, d.count(max(len(schema), 1)))
	for r := 0; r < len(rows) && d.err == nil; r++ {
		rec := make(Record, len(schema))
		for c := range rec {
			rec[c] = d.value()
		}
		rows[r] = rec
	}
	if d.off != len(d.buf) {
		d.fail(d.off, "trailing bytes")
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return schema, rows, nil
}
