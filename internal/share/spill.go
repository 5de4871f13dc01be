package share

import (
	"fmt"
	"path/filepath"

	"etlopt/internal/data"
)

// writeSpill persists the rows of the stage of class under dir, which
// exists, as stage-<class>.rows and returns the file path. The file is a
// typed row file, not CSV: a consumer served from disk must see the kinds
// its producer emitted (String("007") coming back Int(7) would break
// bit-identity with the solo run).
func writeSpill(dir string, class int, schema data.Schema, rows data.Rows) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("stage-%d.rows", class))
	if err := data.WriteRowFile(path, schema, rows); err != nil {
		return "", fmt.Errorf("share: spilling stage %d: %w", class, err)
	}
	return path, nil
}

// readSpill loads a spill file back, verifying its schema against the
// expected one. Damage of either kind is a *data.RowFileError.
func readSpill(path string, schema data.Schema) (data.Rows, error) {
	rows, err := data.ReadRowFileAs(path, schema)
	if err != nil {
		return nil, fmt.Errorf("share: reading spill: %w", err)
	}
	return rows, nil
}
