// Command etlgen generates synthetic ETL workflow definitions in the size
// bands of the paper's experimental suite (§4.2) and writes them as .etl
// files that etlopt can optimize.
//
// Usage:
//
//	etlgen -category small|medium|large -n 5 -seed 7 -dir out/
//	       [-data datadir/]
//
// With -data, the generated source rows and surrogate-key lookup tables
// are also written as <datadir>/<name>.csv, so the emitted workflows are
// directly executable: etlrun -in out/small-01.etl -data datadir.
//
// With -suite N, etlgen instead emits N workflows that share their
// extract/clean prefix — identical sources, source data and branch
// pipelines, diverging post-union — the shape etlrun's suite mode and the
// shared-work scheduler exploit:
//
//	etlgen -category small -suite 3 -seed 7 -dir out/ -data datadir/
//	etlrun -data datadir out/small-shared-01.etl out/small-shared-02.etl out/small-shared-03.etl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etlgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		category = flag.String("category", "small", "workflow size band: small, medium or large")
		n        = flag.Int("n", 1, "number of workflows to generate")
		seed     = flag.Int64("seed", 1, "base random seed")
		dir      = flag.String("dir", ".", "output directory")
		dataDir  = flag.String("data", "", "also write each scenario's source and lookup rows as <dir>/<name>.csv for etlrun")
		suite    = flag.Int("suite", 0, "emit this many workflows sharing their extract/clean prefix (overrides -n)")
	)
	flag.Parse()

	var cat generator.Category
	switch *category {
	case "small":
		cat = generator.Small
	case "medium":
		cat = generator.Medium
	case "large":
		cat = generator.Large
	default:
		return fmt.Errorf("unknown category %q", *category)
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	var scenarios []*templates.Scenario
	var err error
	stem := *category
	if *suite > 0 {
		scenarios, err = generator.SharedSuite(cat, *suite, *seed)
		stem = *category + "-shared"
	} else {
		scenarios, err = generator.Suite(cat, *n, *seed)
	}
	if err != nil {
		return err
	}
	for i, sc := range scenarios {
		text, err := dsl.Serialize(sc.Graph)
		if err != nil {
			return err
		}
		name := filepath.Join(*dir, fmt.Sprintf("%s-%02d.etl", stem, i+1))
		if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
			return err
		}
		if *dataDir != "" {
			// Scenarios reuse recordset names (SRC1, SKLOOKUP, ...) with
			// per-scenario schemas, so each workflow gets its own data
			// directory: etlrun -in small-01.etl -data <datadir>/small-01.
			// Suite members follow the same convention, which is exactly
			// what etlrun's suite mode resolves per workflow basename.
			sub := filepath.Join(*dataDir, fmt.Sprintf("%s-%02d", stem, i+1))
			if err := writeData(sub, sc); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %s (%d activities, %d nodes)\n",
			name, len(sc.Graph.Activities()), sc.Graph.Len())
	}
	return nil
}

// writeData materializes the scenario's source and lookup rows as CSV
// record files named like etlrun's binding convention
// (<dir>/<recordset>.csv), truncating any file left by a previous run.
func writeData(dir string, sc *templates.Scenario) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(bindings map[string]data.Rows) error {
		names := make([]string, 0, len(bindings))
		for name := range bindings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(dir, strings.ReplaceAll(name, string(filepath.Separator), "_")+".csv")
			os.Remove(path)
			rs, err := data.NewFileRecordset(name, sc.Schemas[name], path)
			if err != nil {
				return err
			}
			if err := rs.Load(bindings[name]); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d rows)\n", path, len(bindings[name]))
		}
		return nil
	}
	if err := write(sc.Sources); err != nil {
		return err
	}
	return write(sc.Lookups)
}
