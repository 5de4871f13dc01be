package cost

import (
	"sync"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// countingModel wraps RowModel and counts base evaluations, so tests can
// observe exactly when the memo short-circuits.
type countingModel struct {
	mu    sync.Mutex
	calls int
	base  RowModel
}

func (m *countingModel) ActivityCost(a *workflow.Activity, in []float64) float64 {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	return m.base.ActivityCost(a, in)
}

func (m *countingModel) OutputRows(a *workflow.Activity, in []float64) float64 {
	return m.base.OutputRows(a, in)
}

func testActivity() *workflow.Activity {
	return &workflow.Activity{
		Name: "σ(A)",
		Sem:  workflow.Semantics{Op: workflow.OpNotNull, Attrs: []string{"A"}},
		Fun:  data.Schema{"A"},
		Sel:  0.5,
	}
}

func TestMemoHitsOnRepeatedPricing(t *testing.T) {
	base := &countingModel{}
	m := NewMemo(base)
	a := testActivity()
	in := []float64{1000}

	c1 := m.ActivityCost(a, in)
	r1 := m.OutputRows(a, in) // same key: served from the memo entry
	if base.calls != 1 {
		t.Fatalf("base evaluated %d times for one key, want 1", base.calls)
	}
	c2 := m.ActivityCost(a, in)
	r2 := m.OutputRows(a, in)
	if base.calls != 1 {
		t.Fatalf("repeat pricing re-evaluated the base model (%d calls)", base.calls)
	}
	if c1 != c2 || r1 != r2 {
		t.Fatalf("memo changed values: cost %v->%v rows %v->%v", c1, c2, r1, r2)
	}
	if hits, misses := m.Stats(); hits == 0 || misses != 1 {
		t.Fatalf("Stats() = %d hits, %d misses; want >0 hits, 1 miss", hits, misses)
	}

	// A different input cardinality is a different key.
	m.ActivityCost(a, []float64{2000})
	if base.calls != 2 {
		t.Fatalf("new cardinality did not re-evaluate (%d calls)", base.calls)
	}
	// A cloned activity is a different pointer, hence a different key —
	// exactly the COW convention: rewritten activities are fresh clones.
	m.ActivityCost(a.Clone(), in)
	if base.calls != 3 {
		t.Fatalf("cloned activity did not re-evaluate (%d calls)", base.calls)
	}
}

func TestMemoMatchesBaseOnGraph(t *testing.T) {
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"A"}, Rows: 5000, IsSource: true})
	a1 := g.AddActivity(testActivity())
	a2 := g.AddActivity(testActivity())
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"A"}, IsTarget: true})
	g.MustAddEdge(src, a1)
	g.MustAddEdge(a1, a2)
	g.MustAddEdge(a2, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}

	plain, err := Evaluate(g, RowModel{})
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo(RowModel{})
	memoed, err := Evaluate(g, memo)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != memoed.Total {
		t.Fatalf("memoized total %v != plain total %v", memoed.Total, plain.Total)
	}
	for _, id := range plain.Nodes() {
		if got, want := memoed.Cost(id), plain.Cost(id); got != want {
			t.Fatalf("node %d: memoized cost %v != plain %v", id, got, want)
		}
	}
	// Re-evaluating the same graph must be pure hits.
	_, before := memo.Stats()
	if _, err := Evaluate(g, memo); err != nil {
		t.Fatal(err)
	}
	if _, after := memo.Stats(); after != before {
		t.Fatalf("re-evaluation missed the memo (%d -> %d misses)", before, after)
	}
}

func TestNewMemoDoesNotStack(t *testing.T) {
	m := NewMemo(RowModel{})
	if NewMemo(m) != m {
		t.Fatal("NewMemo wrapped an existing *Memo")
	}
}

func TestMemoUnkeyableArity(t *testing.T) {
	base := &countingModel{}
	m := NewMemo(base)
	a := testActivity()
	in := []float64{1, 2, 3} // three inputs: no key, always evaluates
	m.ActivityCost(a, in)
	m.ActivityCost(a, in)
	if base.calls != 2 {
		t.Fatalf("unkeyable arity was memoized (%d calls)", base.calls)
	}
}

func TestMemoConcurrentUse(t *testing.T) {
	m := NewMemo(RowModel{})
	a := testActivity()
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last float64
			for i := 0; i < 500; i++ {
				last = m.ActivityCost(a, []float64{float64(1000 + i%7)})
			}
			results[w] = last
		}(w)
	}
	wg.Wait()
	for w := 1; w < 16; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d priced %v, worker 0 priced %v", w, results[w], results[0])
		}
	}
}
