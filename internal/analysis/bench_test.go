package analysis

import (
	"fmt"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/workflow"
)

// benchCorpus builds a seeded generator corpus once per size band.
func benchCorpus(b *testing.B, cat generator.Category, n int) []*workflow.Graph {
	b.Helper()
	scs, err := generator.Suite(cat, n, 42)
	if err != nil {
		b.Fatal(err)
	}
	gs := make([]*workflow.Graph, len(scs))
	for i, sc := range scs {
		gs[i] = sc.Graph
	}
	return gs
}

// BenchmarkAnalysisPasses runs the full workflow pass suite — schema
// dataflow, design checks and the abstract interpreter — over seeded
// generator workflows in the paper's size bands. This is the cost of
// `etlvet workflow` per workflow, the number CI budget decisions are
// made against.
func BenchmarkAnalysisPasses(b *testing.B) {
	for _, band := range []struct {
		cat generator.Category
		n   int
	}{{generator.Small, 4}, {generator.Medium, 2}, {generator.Large, 2}} {
		b.Run(band.cat.String(), func(b *testing.B) {
			gs := benchCorpus(b, band.cat, band.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := gs[i%len(gs)]
				if _, err := CheckWorkflow(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAbstractInterpret isolates the abstract interpreter from the
// rest of the pass suite.
func BenchmarkAbstractInterpret(b *testing.B) {
	for _, band := range []struct {
		cat generator.Category
		n   int
	}{{generator.Small, 4}, {generator.Large, 2}} {
		b.Run(band.cat.String(), func(b *testing.B) {
			gs := benchCorpus(b, band.cat, band.n)
			for i, g := range gs {
				c := g.Clone()
				if err := c.RegenerateSchemata(); err != nil {
					b.Fatal(fmt.Errorf("workflow %d: %w", i, err))
				}
				gs[i] = c
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Interpret(gs[i%len(gs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
