package share

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// Workflow is one member of a suite: a parsed workflow graph plus the
// recordset bindings (sources, lookups, and optionally targets) it runs
// against.
type Workflow struct {
	// Name labels the workflow in results and errors; defaults to its
	// index when empty.
	Name string
	// Graph is the parsed workflow.
	Graph *workflow.Graph
	// Bindings maps recordset names to data. Every source and lookup the
	// graph reads must be bound; target bindings are optional (unbound
	// targets are still reported in the run result). A recordset bound in
	// several members is digested and scanned by them concurrently.
	Bindings map[string]data.Recordset
}

// stage is one shared intermediate: a stage node of the member whose graph
// its producer runs execute, and the slot a suite run keeps it in.
type stage struct {
	slot
	class  int
	schema data.Schema
	pw     *planWorkflow
	id     workflow.NodeID
	// need holds the nodes a producer run executes or restores: id and its
	// upstream closure down to the stage nodes it reads, restored
	// from the stages deps names.
	need map[workflow.NodeID]bool
	deps []int
}

// planWorkflow is one suite member: its nodes' closure classes, its stage
// nodes (shared) — the shared activities the suite reads in more than one
// place: each ends a stage and is restored wherever a run reads it — and
// what its own run executes or restores (need) and reads from stages
// (deps).
type planWorkflow struct {
	wf      Workflow
	classes map[workflow.NodeID]int
	shared  map[workflow.NodeID]bool
	need    map[workflow.NodeID]bool
	deps    []int
}

// plan is the suite's stage DAG: every shared intermediate appears exactly
// once, under its class, and every run — producer or member — executes a
// member's own graph.
type plan struct {
	workflows []*planWorkflow
	stages    map[int]*stage
	// order lists the stages by class, which is dependencies first: a
	// stage reads only stages upstream of it, and those have smaller
	// classes.
	order []int
}

// newPlan numbers the closure classes of every workflow, finds classes that
// occur more than once across the suite (including homologous twins inside
// a single workflow), and builds the stage DAG over those the suite reads
// in more than one place. Digesting a bound source or lookup may read its
// bytes (a record file's), so workers members are validated and digested
// at a time, until ctx is done. The first error is then taken, and classes
// numbered, in member order, whatever workers is. Validating a graph sorts
// it, so the runs that later share it only read its memoized order.
func newPlan(ctx context.Context, wfs []Workflow, workers int) (*plan, error) {
	p := &plan{stages: make(map[int]*stage)}

	ds := make([]map[string]uint64, len(wfs))
	errs := make([]error, len(wfs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, wf := range wfs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if wf.Graph == nil {
				errs[i] = fmt.Errorf("it has no graph")
			} else if errs[i] = wf.Graph.Validate(); errs[i] == nil {
				ds[i], errs[i] = digests(ctx, wf.Graph, wf.Bindings)
			}
		}()
	}
	wg.Wait()
	cls := classes{ids: make(map[string]int)}
	// A class every occurrence of which feeds one activity, all of one
	// class occurring as often, is read only by that activity: it is
	// computed inside its consumer's stage. feeds holds that consumer's
	// class; forks the classes read otherwise.
	counts := make(map[int]int)
	feeds := make(map[int]int)
	forks := make(map[int]bool)
	for i, wf := range wfs {
		if errs[i] != nil {
			return nil, fmt.Errorf("share: workflow %s: %w", wfName(wf, i), errs[i])
		}
		of := cls.number(wf.Graph, ds[i])
		p.workflows = append(p.workflows, &planWorkflow{wf: wf, classes: of, shared: make(map[workflow.NodeID]bool)})
		for _, id := range wf.Graph.Activities() {
			c := of[id]
			counts[c]++
			cs := wf.Graph.Consumers(id)
			if len(cs) != 1 || wf.Graph.Node(cs[0]).Kind != workflow.KindActivity {
				forks[c] = true
			} else if f, seen := feeds[c]; seen && f != of[cs[0]] {
				forks[c] = true
			} else {
				feeds[c] = of[cs[0]]
			}
		}
	}

	for _, pw := range p.workflows {
		wf := pw.wf
		for _, id := range wf.Graph.Activities() {
			c := pw.classes[id]
			pw.shared[id] = counts[c] >= 2 && (forks[c] || counts[feeds[c]] != counts[c])
		}
		var cuts []workflow.NodeID
		pw.need, cuts = pw.closure(wf.Graph.Targets()...)
		for _, id := range cuts {
			p.ensureStage(pw, id)
		}
		pw.deps = p.countReads(pw.classesOf(cuts))
	}
	p.order = sortedKeys(p.stages)
	return p, nil
}

func wfName(wf Workflow, i int) string {
	if wf.Name != "" {
		return wf.Name
	}
	return fmt.Sprintf("#%d", i)
}

// closure returns what a run of the member from roots executes or
// restores — the roots, and upstream of them every node down to the first
// stage nodes (other than the roots themselves) — and those stage nodes,
// sorted. Cutting at the *first* stage node walking back is what makes the
// shared subgraphs maximal.
func (pw *planWorkflow) closure(roots ...workflow.NodeID) (map[workflow.NodeID]bool, []workflow.NodeID) {
	need := make(map[workflow.NodeID]bool)
	cut := make(map[workflow.NodeID]bool)
	var visit func(id workflow.NodeID)
	visit = func(id workflow.NodeID) {
		if need[id] {
			return
		}
		if need[id] = true; pw.shared[id] {
			cut[id] = true
			return
		}
		for _, pr := range pw.wf.Graph.Providers(id) {
			visit(pr)
		}
	}
	for _, r := range roots {
		need[r] = true
		for _, pr := range pw.wf.Graph.Providers(r) {
			visit(pr)
		}
	}
	return need, sortedKeys(cut)
}

// classesOf returns the sorted distinct classes of ids.
func (pw *planWorkflow) classesOf(ids []workflow.NodeID) []int {
	set := make(map[int]bool, len(ids))
	for _, id := range ids {
		set[pw.classes[id]] = true
	}
	return sortedKeys(set)
}

// ensureStage registers the stage of the stage node id of pw, after
// the stages its closure reads, unless a member planned before registered
// its class: that member's graph is the one its producer runs execute.
func (p *plan) ensureStage(pw *planWorkflow, id workflow.NodeID) {
	c := pw.classes[id]
	if _, ok := p.stages[c]; ok {
		return
	}
	need, cuts := pw.closure(id)
	for _, cut := range cuts {
		p.ensureStage(pw, cut)
	}
	p.stages[c] = &stage{
		slot:   slot{done: make(chan struct{})},
		class:  c,
		schema: pw.wf.Graph.Node(id).Out.Clone(),
		pw:     pw,
		id:     id,
		need:   need,
		deps:   p.countReads(pw.classesOf(cuts)),
	}
}

// countReads counts one planned read of each of the stages deps and
// returns deps.
func (p *plan) countReads(deps []int) []int {
	for _, d := range deps {
		p.stages[d].readers++
	}
	return deps
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
