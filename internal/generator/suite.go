package generator

import (
	"fmt"

	"etlopt/internal/templates"
)

// Suite returns n scenarios of the given category, seeded deterministically
// from baseSeed.
func Suite(cat Category, n int, baseSeed int64) ([]*templates.Scenario, error) {
	out := make([]*templates.Scenario, 0, n)
	for i := 0; i < n; i++ {
		cfg := CategoryConfig(cat, baseSeed+int64(i)*7919)
		sc, err := Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generator: scenario %d of %s suite: %w", i, cat, err)
		}
		out = append(out, sc)
	}
	return out, nil
}

// SharedSuite returns n workflows of the given category that share their
// extract/clean prefix — identical branch sources (names, schemas and
// generated data), branch pipelines, homologous tails and union tree —
// while each member's post-union pipeline diverges under its own seed.
// This is the realistic shape for the shared-work suite scheduler: the
// shared-subgraph detector finds the common prefix by content, not because
// the workflows are wholesale copies.
func SharedSuite(cat Category, n int, baseSeed int64) ([]*templates.Scenario, error) {
	out := make([]*templates.Scenario, 0, n)
	for i := 0; i < n; i++ {
		cfg := CategoryConfig(cat, baseSeed+int64(i+1)*7919)
		cfg.PrefixSeed = baseSeed + int64(cat)*104729 + 1
		sc, err := Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generator: workflow %d of shared %s suite: %w", i, cat, err)
		}
		out = append(out, sc)
	}
	return out, nil
}
