package workflow_test

import (
	"fmt"
	"slices"
	"testing"

	"etlopt/internal/generator"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// groupCorpus returns generator workflows of every size band over several
// seeds, each followed by every successor transitions.Enumerate derives
// from it: swapped, factorized and distributed states, whose groups hold
// DIS clones and combined tags.
func groupCorpus(t *testing.T) map[string]*workflow.Graph {
	t.Helper()
	out := make(map[string]*workflow.Graph)
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		for seed := int64(0); seed < 20; seed++ {
			sc, err := generator.Generate(generator.CategoryConfig(cat, 7100+seed))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s-%d", cat, seed)
			out[name] = sc.Graph
			for _, res := range transitions.Enumerate(sc.Graph) {
				out[name+"/"+res.Description()] = res.Graph
			}
		}
	}
	return out
}

// TestGroupQueriesUnchanged pins the group queries to LocalGroups on a
// corpus of workflows and their successors: GroupOf answers the group that
// holds a node, and FindDistributableActivities and FindHomologousPairs
// equal references built from LocalGroups alone.
func TestGroupQueriesUnchanged(t *testing.T) {
	corpus := groupCorpus(t)
	if len(corpus) < 60 {
		t.Fatalf("corpus holds %d graphs, want at least 60", len(corpus))
	}
	for name, g := range corpus {
		groupOf := make(map[workflow.NodeID]workflow.LocalGroup)
		for _, grp := range g.LocalGroups() {
			for _, id := range grp {
				groupOf[id] = grp
			}
		}
		for _, id := range g.Nodes() {
			if got, want := g.GroupOf(id), groupOf[id]; !slices.Equal(got, want) {
				t.Fatalf("%s: GroupOf(%d) = %v, LocalGroups holds it in %v", name, id, got, want)
			}
		}

		var dis []workflow.DistributableActivity
		var hom []workflow.HomologousPair
		for _, id := range g.Activities() {
			b := g.Node(id).Act
			if !b.IsBinary() {
				continue
			}
			if succs := g.Consumers(id); len(succs) == 1 {
				for _, a := range groupOf[succs[0]] {
					if workflow.CanDistributeOver(g.Node(a).Act, b) {
						dis = append(dis, workflow.DistributableActivity{Activity: a, Binary: id})
					}
				}
			}
			if preds := g.Providers(id); len(preds) == 2 {
				for _, a := range groupOf[preds[0]] {
					for _, c := range groupOf[preds[1]] {
						if g.Node(a).Act.Homologous(g.Node(c).Act) {
							hom = append(hom, workflow.HomologousPair{A: a, B: c, Binary: id})
						}
					}
				}
			}
		}
		if got := g.FindDistributableActivities(); !slices.Equal(got, dis) {
			t.Fatalf("%s: FindDistributableActivities = %v, reference %v", name, got, dis)
		}
		if got := g.FindHomologousPairs(); !slices.Equal(got, hom) {
			t.Fatalf("%s: FindHomologousPairs = %v, reference %v", name, got, hom)
		}
	}
}

// TestFindDistributableAllocations pins that the DIS candidates of the
// large generator workflow cost their output slice alone: each binary
// activity's group is walked, not rebuilt from the whole graph.
func TestFindDistributableAllocations(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Large, 20050405))
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Graph
	if got := len(g.FindDistributableActivities()); got != 9 {
		t.Fatalf("%d distributable activities, want 9", got)
	}
	if n := testing.AllocsPerRun(50, func() { g.FindDistributableActivities() }); n > 5 {
		t.Errorf("FindDistributableActivities allocates %v times, want at most 5 (the output growing to 9)", n)
	}
}
