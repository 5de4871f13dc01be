package proptest_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/proptest"
	"etlopt/internal/templates"
)

// The equivalence matrix. Each axis test below is one entry point of the
// runner: it takes the cells of its axis from the cross product and runs
// each generated workflow (or suite) in a fixed slice of them, rotated by
// the workflow's index so that consecutive workflows cover the axis. Every
// run is held to its reference by engine.SameRun inside the runner.

// soloCells is the cross product of the solo axes that keep accepts, the
// fault axes varying fastest (transient, crash, both), then P, then the
// journal: a workflow's three fault cells are every fault kind at one
// (P, journal) pair, and its three fault-free cells every P.
func soloCells(keep func(proptest.Cell) bool) []proptest.Cell {
	var out []proptest.Cell
	for _, j := range []bool{false, true} {
		for _, p := range []int{1, 2, 8} {
			for _, crash := range []bool{false, true} {
				for _, faults := range []bool{false, true} {
					if c := (proptest.Cell{P: p, Journal: j, Faults: faults, Crash: crash}); keep(c) {
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// suiteName names a suite cell the way its subtest is named, e.g.
// "serial-zero-spill-P1" or "parallel-tiny-P8-journal".
func suiteName(c proptest.SuiteCell) string {
	s := map[bool]string{false: "serial", true: "parallel"}[c.W > 1]
	s += map[int64]string{-1: "-unbounded", 0: "-zero", 4096: "-tiny"}[c.Budget]
	if c.Spill {
		s += "-spill"
	}
	s += fmt.Sprintf("-P%d", c.P)
	if c.Journal {
		s += "-journal"
	}
	return s
}

// rotate is the i-th workflow's slice of cells: k of them, from k·i on,
// wrapping around.
func rotate[C any](cells []C, i, k int) []C {
	out := make([]C, k)
	for j := range out {
		out[j] = cells[(i*k+j)%len(cells)]
	}
	return out
}

// generated is one shared suite and its members' references.
type generated struct {
	scs  []*templates.Scenario
	refs []*engine.RunResult
}

type corpus struct {
	cat generator.Category
	n   int
}

// runSolo drives the solo axes: each workflow of the corpus runs its
// rotated slice of k cells through proptest.CheckRuns and, given worker
// counts, the search half of journal invariance. It logs how many distinct
// cells the corpus covered.
func runSolo(t *testing.T, counts []corpus, cells []proptest.Cell, k int, workers []int) {
	covered := map[proptest.Cell]bool{}
	n := 0
	for _, c := range counts {
		for i, sc := range suiteFor(t, c.cat, c.n, propSeed+int64(c.cat)*104729) {
			slice := rotate(cells, n, k)
			for _, cell := range slice {
				covered[cell] = true
			}
			n++
			// Derive the fault seed from the scenario index so each
			// workflow sees a different — but fixed — schedule.
			seed := propSeed + int64(c.cat)*104729 + int64(i)
			t.Run(fmt.Sprintf("%s-%02d", c.cat, i+1), func(t *testing.T) {
				t.Parallel()
				if err := proptest.CheckRuns(sc, seed, slice); err != nil {
					t.Fatalf("scenario %s seed base %d index %d: %v", c.cat, propSeed, i, err)
				}
				if workers == nil {
					return
				}
				if err := proptest.CheckSearchJournal(sc, workers); err != nil {
					t.Fatalf("scenario %s seed base %d index %d: %v", c.cat, propSeed, i, err)
				}
			})
		}
	}
	t.Logf("checked %d generated workflows over %d of the axis' %d cells", n, len(covered), len(cells))
}

// corpus200 is the ~200-workflow corpus of the partition and fault axes.
func corpus200() []corpus {
	if testing.Short() {
		return []corpus{{generator.Small, 24}, {generator.Medium, 6}, {generator.Large, 2}}
	}
	return []corpus{{generator.Small, 140}, {generator.Medium, 40}, {generator.Large, 20}}
}

// TestPartitionInvariance is the partition axis: every workflow at
// P ∈ {1, 2, 8} in Parallel mode, with the journal on for every other
// workflow, must be the same run as the clean Materialized one — the
// partition count is observationally invisible, row order included. Under
// -race this also exercises the exchange and gather machinery.
func TestPartitionInvariance(t *testing.T) {
	runSolo(t, corpus200(), soloCells(func(c proptest.Cell) bool { return !c.Faults && !c.Crash }), 3, nil)
}

// TestJournalInvariance is the journal axis: journal collection is
// write-only, so every workflow journaled at P ∈ {1, 2, 8} must be the same
// run as the clean one, its journal well-formed and carrying the per-node
// rows, and its HS search at W ∈ {1, 4} must reach the same result with a
// journal as without. Under -race this also exercises concurrent emitters
// against the single writer.
func TestJournalInvariance(t *testing.T) {
	counts := []corpus{{generator.Small, 12}, {generator.Medium, 4}}
	if testing.Short() {
		counts = []corpus{{generator.Small, 4}, {generator.Medium, 1}}
	}
	runSolo(t, counts, soloCells(func(c proptest.Cell) bool { return c.Journal && !c.Faults && !c.Crash }), 3, []int{1, 4})
}

// TestFaultRecoveryEquivalence is the fault axis: every workflow runs a
// seeded transient plan under retry, a crash-restart resume, and both, at
// one (P, journal) pair that rotates through P ∈ {1, 2, 8} × journal. Any
// faulty run that ultimately succeeds must be the same run as the clean
// one, the killed run must fail with a typed, attributed permanent fault,
// and a journal must show the faults, retries and resumes. Under -race this
// also exercises the injection points' concurrent occurrence accounting.
func TestFaultRecoveryEquivalence(t *testing.T) {
	runSolo(t, corpus200(), soloCells(func(c proptest.Cell) bool { return c.Faults || c.Crash }), 3, nil)
}

// TestSharedRunEquivalence is the suite axis: 34 seeded shared-prefix
// suites of three, each member of a share.RunSuite run required to be the
// same run as its own solo reference. A suite runs six fixed cache
// configurations, at P = 1 or 8 by its parity, and two more cells rotated
// through the rest of W ∈ {1, 4} × budget {unbounded, 0, 4096} × spill ×
// P ∈ {1, 8} × journal. Under -race this also exercises the stage
// scheduler's single-flight population and the cache's locking.
func TestSharedRunEquivalence(t *testing.T) {
	type config struct {
		w      int
		budget int64
		spill  bool
	}
	base := []config{{1, -1, false}, {4, -1, false}, {4, 0, false}, {1, 0, true}, {4, 4096, false}, {1, 4096, false}}
	var rest []proptest.SuiteCell
	for _, j := range []bool{false, true} {
		for _, p := range []int{1, 8} {
			for _, spill := range []bool{false, true} {
				for _, budget := range []int64{-1, 0, 4096} {
					for _, w := range []int{1, 4} {
						if !j && slices.Contains(base, config{w, budget, spill}) {
							continue
						}
						rest = append(rest, proptest.SuiteCell{W: w, P: p, Budget: budget, Spill: spill, Journal: j})
					}
				}
			}
		}
	}
	counts := []corpus{{generator.Small, 30}, {generator.Medium, 4}}
	if testing.Short() {
		counts = []corpus{{generator.Small, 4}, {generator.Medium, 1}}
	}
	const suiteSize = 3
	covered := map[proptest.SuiteCell]bool{}
	n := 0
	for _, c := range counts {
		for s := 0; s < c.n; s++ {
			seed := propSeed + int64(c.cat)*104729 + int64(s)*7919
			p := 1 + 7*(s%2)
			var cells []proptest.SuiteCell
			for _, b := range base {
				cells = append(cells, proptest.SuiteCell{W: b.w, P: p, Budget: b.budget, Spill: b.spill})
			}
			cells = append(cells, rotate(rest, n, 2)...)
			n++
			// The first of the suite's cells to run generates the suite and
			// runs each member alone; the cells share its graphs, which a run
			// only reads, and bind fresh recordsets each (CheckSuite).
			suite := sync.OnceValues(func() (generated, error) {
				scs, err := generator.SharedSuite(c.cat, suiteSize, seed)
				refs := make([]*engine.RunResult, len(scs))
				for i := 0; err == nil && i < len(scs); i++ {
					refs[i], err = proptest.Reference(scs[i])
				}
				return generated{scs, refs}, err
			})
			for _, cell := range cells {
				covered[cell] = true
				t.Run(fmt.Sprintf("%s-%02d-%s", c.cat, s+1, suiteName(cell)), func(t *testing.T) {
					t.Parallel()
					su, err := suite()
					if err != nil {
						t.Fatalf("shared %s suite seed %d: %v", c.cat, seed, err)
					}
					if err := proptest.CheckSuite(su.scs, su.refs, cell, t.TempDir()); err != nil {
						t.Fatalf("shared %s suite seed %d: %v", c.cat, seed, err)
					}
				})
			}
		}
	}
	t.Logf("checked %d suites of %d workflows over %d of 48 cells", n, suiteSize, len(covered))
}
