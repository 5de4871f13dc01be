package core

import (
	"context"
	"runtime"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// BenchmarkIncrementalExpand measures successor-generation throughput:
// turning an applied transition into an admitted, costed, signed state
// through the expansion pipeline — COW graphs, signature splicing +
// interning, per-activity cost memo, semi-incremental costing. The rewrite
// itself (transitions.Enumerate) is hoisted out of the timed loop.
//
// The frontier deliberately contains a parent chain plus sibling groups:
// siblings share almost all structure with their parent, and repeated
// sweeps re-materialize known states — both are the steady-state shapes
// (shared subgraphs) the memo and the interner are built for. Run with
//
//	go test -bench BenchmarkIncrementalExpand -benchtime 2s ./internal/core/
func BenchmarkIncrementalExpand(b *testing.B) {
	b.ReportAllocs()
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 31337))
	if err != nil {
		b.Fatal(err)
	}
	s := newSearch(context.Background(), Options{IncrementalCost: true}.withDefaults())
	root, err := s.initialState(sc.Graph)
	if err != nil {
		b.Fatal(err)
	}
	parents := []*state{root}
	frontier := []*state{root}
	for depth := 0; depth < 2; depth++ {
		var next []*state
		for _, p := range frontier {
			for _, res := range transitions.Enumerate(p.g) {
				if len(next) >= 12 {
					break
				}
				sig := s.signatureOf(p, res)
				st, err := s.makeState(p, res, sig)
				if err != nil {
					b.Fatal(err)
				}
				next = append(next, st)
			}
		}
		parents = append(parents, next...)
		frontier = next
	}

	// Hoist the rewrites out of the timed loop.
	type expansion struct {
		parent *state
		res    *transitions.Result
	}
	var work []expansion
	for _, p := range parents {
		for _, res := range transitions.Enumerate(p.g) {
			work = append(work, expansion{p, res})
		}
	}

	succ := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range work {
			sig := s.signatureOf(w.parent, w.res)
			if _, err := s.makeState(w.parent, w.res, sig); err != nil {
				b.Fatal(err)
			}
			succ++
		}
	}
	b.StopTimer()
	if succ > 0 {
		b.ReportMetric(float64(succ)/b.Elapsed().Seconds(), "succ/s")
	}
}

// searchDeepGraphs returns the four workflows of the benchmark's
// search-deep workload: two medium and two large generator workflows at
// the default seed.
func searchDeepGraphs(tb testing.TB) []*workflow.Graph {
	var out []*workflow.Graph
	for _, cat := range []generator.Category{generator.Medium, generator.Large} {
		scs, err := generator.Suite(cat, 2, 20050405)
		if err != nil {
			tb.Fatal(err)
		}
		for _, sc := range scs {
			out = append(out, sc.Graph)
		}
	}
	return out
}

// BenchmarkHeuristicSearchDeep runs HS at 1 000 states on one worker over
// the search-deep workflows, the optimizer alone, and reports what one
// generated state costs in time and in heap:
//
//	go test -run '^$' -bench HeuristicSearchDeep -benchtime 20x ./internal/core/
func BenchmarkHeuristicSearchDeep(b *testing.B) {
	graphs := searchDeepGraphs(b)
	opts := Options{IncrementalCost: true, MaxStates: 1000, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			res, err := Heuristic(context.Background(), g, opts)
			if err != nil {
				b.Fatal(err)
			}
			states += res.Generated
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(states), "allocs/state")
}
