package proptest_test

import (
	"fmt"
	"testing"

	"etlopt/internal/cost"
	"etlopt/internal/generator"
	"etlopt/internal/proptest"
	"etlopt/internal/templates"
)

// propSeed anchors the generated population; changing it changes every
// workflow in the suite, so keep it stable to keep failures reproducible.
const propSeed = 0x5eed

// suiteFor generates n scenarios of one category, failing the test on
// generator errors.
func suiteFor(t testing.TB, cat generator.Category, n int, seed int64) []*templates.Scenario {
	t.Helper()
	scs, err := generator.Suite(cat, n, seed)
	if err != nil {
		t.Fatalf("generating %s suite: %v", cat, err)
	}
	return scs
}

// TestMetamorphicExpansion is the core property-based guard of the
// incremental successor machinery: ~200 seeded random workflows, every
// applicable transition applied to each, asserting that (a) delta cost
// recomputation equals from-scratch evaluation, (b) spliced signatures
// equal full re-renderings, (c) sampled derived states are empirically
// equivalent to their parents on generated data, and (d) copy-on-write
// derivation never leaks a mutation back into the parent state.
func TestMetamorphicExpansion(t *testing.T) {
	counts := []struct {
		cat    generator.Category
		n      int
		verify int // successors to verify empirically per workflow
	}{
		{generator.Small, 140, 2},
		{generator.Medium, 40, 1},
		{generator.Large, 20, 1},
	}
	if testing.Short() {
		counts[0].n, counts[1].n, counts[2].n = 24, 6, 2
	}
	model := cost.RowModel{}
	total := 0
	for _, c := range counts {
		scs := suiteFor(t, c.cat, c.n, propSeed+int64(c.cat)*104729)
		for i, sc := range scs {
			sc, i, c := sc, i, c
			t.Run(fmt.Sprintf("%s-%02d", c.cat, i+1), func(t *testing.T) {
				t.Parallel()
				if err := proptest.CheckExpansion(sc, model, c.verify); err != nil {
					t.Fatalf("scenario %s seed base %d index %d: %v", c.cat, propSeed, i, err)
				}
			})
		}
		total += len(scs)
	}
	t.Logf("checked %d generated workflows", total)
}

// TestSearchMutationLeak byte-compares every expanded parent's serialized
// form before and after expansion across several search depths — the
// aliasing regression the race detector can't catch, because no data race
// is involved when a single goroutine corrupts a shared parent.
func TestSearchMutationLeak(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		t.Parallel()
		if err := proptest.CheckSearchMutationLeak(templates.Fig1Workflow(), 5, 6); err != nil {
			t.Fatal(err)
		}
	})
	n := 8
	if testing.Short() {
		n = 3
	}
	scs := suiteFor(t, generator.Small, n, propSeed+7)
	for i, sc := range scs {
		sc, i := sc, i
		t.Run(fmt.Sprintf("small-%02d", i+1), func(t *testing.T) {
			t.Parallel()
			if err := proptest.CheckSearchMutationLeak(sc.Graph, 4, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
}
