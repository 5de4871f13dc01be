package share

import (
	"fmt"
	"path/filepath"

	"etlopt/internal/data"
)

// writeSpill persists rows for key under dir, which exists, and returns the
// file path. The file is a typed row file, not CSV: a consumer served from
// disk must see the kinds its producer emitted (String("007") coming back
// Int(7) would break bit-identity with the solo run).
func writeSpill(dir, key string, schema data.Schema, rows data.Rows) (string, error) {
	path := filepath.Join(dir, key+".rows")
	if err := data.WriteRowFile(path, schema, rows); err != nil {
		return "", fmt.Errorf("share: spilling %s: %w", key, err)
	}
	return path, nil
}

// readSpill loads a spill file back, verifying its schema against the
// expected one. Damage of either kind is a *data.RowFileError.
func readSpill(path string, schema data.Schema) (data.Rows, error) {
	header, rows, err := data.ReadRowFile(path)
	if err == nil && !header.Equal(schema) {
		err = &data.RowFileError{Path: path, Reason: fmt.Sprintf("schema %v is not the expected %v", header, schema)}
	}
	if err != nil {
		return nil, fmt.Errorf("share: reading spill: %w", err)
	}
	return rows, nil
}
