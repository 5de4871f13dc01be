package share

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"

	"etlopt/internal/data"
)

// Spill files use the checkpoint staging format: a CSV with the schema as
// header row, values rendered via Value.String with NULL for nulls, and
// read back with data.ReadCSVFile. Writes go through a temp file and a
// rename so a torn write never yields a half-readable spill.

// writeSpill persists rows for key under dir and returns the file path.
func writeSpill(dir, key string, schema data.Schema, rows data.Rows) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, key+".csv")
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return "", err
	}
	w := csv.NewWriter(tmp)
	werr := w.Write(schema)
	for _, rec := range rows {
		if werr != nil {
			break
		}
		fields := make([]string, len(rec))
		for i, v := range rec {
			if v.IsNull() {
				fields[i] = "NULL"
			} else {
				fields[i] = v.String()
			}
		}
		werr = w.Write(fields)
	}
	w.Flush()
	if werr == nil {
		werr = w.Error()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("share: spilling %s: %w", key, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// readSpill loads a spill file back, verifying the header against the
// expected schema.
func readSpill(path string, schema data.Schema) (data.Rows, error) {
	header, rows, err := data.ReadCSVFile(path)
	switch {
	case err != nil:
		return nil, fmt.Errorf("share: reading spill %s: %w", path, err)
	case header == nil:
		return nil, fmt.Errorf("share: spill %s is empty", path)
	case !header.Equal(schema):
		return nil, fmt.Errorf("share: spill %s header %v does not match schema %v", path, header, schema)
	}
	return rows, nil
}
