package core

import (
	"context"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/transitions"
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
