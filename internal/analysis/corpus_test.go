package analysis

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/workflow"
)

// corpusCount is one check's findings over the corpus: how many in the
// generator's small, medium and large workflows and in the committed
// files, and a digest of them one by one (workflow, node, severity,
// message, fix, in report order).
type corpusCount struct {
	n      [4]int
	digest uint64
}

// corpusGolden is what CheckWorkflow reports over the traffic the analyzer
// really sees: generator small/medium/large × 40 at seed 7, then
// examples/workflows/*.etl and benchmark/workloads/*.etl. It was taken at
// the parent's behaviour (PR 27) before any pass was touched, and only
// late-projection has moved since: the parent read {97, 136, 219, 7},
// 0xdbd27036ef279ef9, and the 77 findings gone are projections the
// topological-position distance misjudged because another branch's nodes
// sorted in between (docs/runs/PR-27.txt lists them). Checks absent from the table never fire on this traffic.
var corpusGolden = map[string]corpusCount{
	"dead-attribute":          {[4]int{0, 30, 4, 5}, 0x31221ea6b5aa4a4},
	"dead-filter":             {[4]int{25, 77, 186, 5}, 0xb4c6c6b091ac8eaa},
	"dead-generation":         {[4]int{0, 39, 69, 2}, 0xdb59934b9bff5b2d},
	"late-projection":         {[4]int{94, 101, 181, 6}, 0x5af9b653e6f95f84},
	"redundant-activity":      {[4]int{6, 53, 117, 3}, 0x873e2fa1887a97ef},
	"unguarded-surrogate-key": {[4]int{40, 37, 36, 1}, 0xaec6afb137618fa5},
}

func TestCorpusFindings(t *testing.T) {
	got := map[string]corpusCount{}
	digests := map[string]hash.Hash64{}
	lint := func(group int, name string, g *workflow.Graph) {
		for _, f := range mustCheckWorkflow(t, g) {
			if digests[f.Check] == nil {
				digests[f.Check] = fnv.New64a()
			}
			fmt.Fprintf(digests[f.Check], "%s: %s\n", name, f)
			c := got[f.Check]
			c.n[group]++
			got[f.Check] = c
		}
	}
	for group, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		scs, err := generator.Suite(cat, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			lint(group, fmt.Sprintf("%s-%02d", cat, i+1), sc.Graph)
		}
	}
	var files []string
	for _, pat := range []string{"../../examples/workflows/*.etl", "../../benchmark/workloads/*.etl"} {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("no workflows match %s (%v)", pat, err)
		}
		files = append(files, m...)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lint(3, filepath.Base(path), mustParse(t, string(src)))
	}
	for check, c := range got {
		c.digest = digests[check].Sum64()
		got[check] = c
	}

	checks := map[string]bool{}
	for check := range got {
		checks[check] = true
	}
	for check := range corpusGolden {
		checks[check] = true
	}
	names := make([]string, 0, len(checks))
	for check := range checks {
		names = append(names, check)
	}
	sort.Strings(names)
	for _, check := range names {
		if got[check] != corpusGolden[check] {
			t.Errorf("%s: got %+v, want %+v", check, got[check], corpusGolden[check])
		}
	}
	if t.Failed() {
		for _, check := range names {
			c := got[check]
			t.Logf("\t%q: {[4]int{%d, %d, %d, %d}, %#x},", check, c.n[0], c.n[1], c.n[2], c.n[3], c.digest)
		}
	}
}
