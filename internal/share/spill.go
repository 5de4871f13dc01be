package share

import (
	"fmt"
	"os"
	"path/filepath"

	"etlopt/internal/data"
)

// Spill files use the checkpoint staging format: written whole with
// data.WriteCSVFile (never torn), read back with data.ReadCSVFile.

// writeSpill persists rows for key under dir and returns the file path.
func writeSpill(dir, key string, schema data.Schema, rows data.Rows) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, key+".csv")
	if err := data.WriteCSVFile(path, schema, rows); err != nil {
		return "", fmt.Errorf("share: spilling %s: %w", key, err)
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
