package workflow_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/generator"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// heapTopoSort is the model of Graph.TopoSort: Kahn's algorithm over a
// binary min-heap of ready IDs, which always takes the smallest ready ID.
func heapTopoSort(g *workflow.Graph) ([]workflow.NodeID, error) {
	indeg := make([]int, g.MaxID()+1)
	var ready []workflow.NodeID
	for _, id := range g.Nodes() {
		if indeg[id] = len(g.Providers(id)); indeg[id] == 0 {
			ready = append(ready, id) // ascending, so already a heap
		}
	}
	var out []workflow.NodeID
	for len(ready) > 0 {
		id := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		out = append(out, id)
		for _, s := range g.Consumers(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
				siftUp(ready)
			}
		}
	}
	if len(out) != g.Len() {
		return nil, fmt.Errorf("workflow: graph contains a cycle (%d of %d nodes ordered)", len(out), g.Len())
	}
	return out, nil
}

func siftUp(h []workflow.NodeID) {
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[i] <= h[j] {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func siftDown(h []workflow.NodeID) {
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1] < h[j] {
			j++
		}
		if h[i] <= h[j] {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// checkTopo compares TopoOrder and TopoSort on g with the heap model:
// the same order, or the same error.
func checkTopo(t *testing.T, name string, g *workflow.Graph) {
	t.Helper()
	want, wantErr := heapTopoSort(g)
	var buf [8]workflow.NodeID
	got, err := g.TopoOrder(buf[:0])
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
		t.Fatalf("%s: TopoOrder = %v, %v; heap model %v, %v", name, got, err, want, wantErr)
	}
	got, err = g.TopoSort()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
		t.Fatalf("%s: TopoSort = %v, %v; heap model %v, %v", name, got, err, want, wantErr)
	}
}

// randomDAG returns a graph of n recordset nodes whose edges follow a
// random permutation of the IDs, so ID order is not a topological order,
// with about a tenth of the nodes deleted to leave gaps in the ID space.
func randomDAG(rng *rand.Rand, n int) *workflow.Graph {
	g := workflow.NewGraph()
	ids := make([]workflow.NodeID, n)
	for i := range ids {
		ids[i] = g.AddRecordset(&workflow.RecordsetRef{Name: fmt.Sprint("R", i), Schema: data.Schema{"A"}})
	}
	rank := rng.Perm(n)
	for u := range ids {
		for v := range ids {
			if rank[u] < rank[v] && rng.Intn(n) < 3 {
				g.MustAddEdge(ids[u], ids[v])
			}
		}
	}
	for i := 0; i < n/10; i++ {
		g.RemoveNode(ids[rng.Intn(n)])
	}
	return g
}

// TestTopoSortMatchesHeapModel holds the word-set Kahn to the min-heap one
// it replaced: generator workflows of every category and the successors
// met on a greedy descent from each, random DAGs with deleted-ID gaps
// below and above the stack-buffer slot count, and the same graphs closed
// into cycles, which must fail with the same error.
func TestTopoSortMatchesHeapModel(t *testing.T) {
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		for seed := int64(0); seed < 4; seed++ {
			sc, err := generator.Generate(generator.CategoryConfig(cat, 3300+seed))
			if err != nil {
				t.Fatal(err)
			}
			g := sc.Graph
			for step := 0; g != nil && step < 6; step++ {
				name := fmt.Sprintf("%s-%d step %d", cat, seed, step)
				checkTopo(t, name, g)
				var next *workflow.Graph
				best, err := cost.Evaluate(g, cost.RowModel{})
				if err != nil {
					t.Fatal(err)
				}
				for _, res := range transitions.Enumerate(g) {
					checkTopo(t, name+" "+res.Description(), res.Graph)
					c, err := cost.Evaluate(res.Graph, cost.RowModel{})
					if err != nil {
						t.Fatal(err)
					}
					if c.Total < best.Total {
						best, next = c, res.Graph
					}
				}
				g = next
			}
		}
	}

	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{1, 2, 9, 64, 65, 200, 255, 256, 257, 300, 700} {
		for k := 0; k < 5; k++ {
			g := randomDAG(rng, n)
			checkTopo(t, fmt.Sprintf("dag %d/%d", n, k), g)
			// Close a cycle: an edge from a node back to one of its ancestors.
			for _, id := range g.Nodes() {
				if p := g.Providers(id); len(p) > 0 && !slices.Contains(g.Consumers(id), p[0]) {
					g.MustAddEdge(id, p[0])
					checkTopo(t, fmt.Sprintf("cyclic %d/%d", n, k), g)
					break
				}
			}
		}
	}
}
