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
	fp     uint64
	key    string
	schema data.Schema
	pw     *planWorkflow
	id     workflow.NodeID
	// need holds the nodes a producer run executes or restores: id and its
	// upstream closure down to the stage nodes it reads, restored
	// from the stages deps names.
	need map[workflow.NodeID]bool
	deps []uint64
}

// planWorkflow is one suite member: its graph's closure fingerprints, its
// stage nodes (shared) — the shared activities the suite reads in more than
// one place: each ends a stage and is restored wherever a run reads it —
// and what its own run executes or restores (need) and reads from stages
// (deps).
type planWorkflow struct {
	wf     Workflow
	fps    map[workflow.NodeID]uint64
	shared map[workflow.NodeID]bool
	need   map[workflow.NodeID]bool
	deps   []uint64
}

// plan is the suite's stage DAG: every shared intermediate appears exactly
// once, producer stages are ordered dependencies-first, and every run —
// producer or member — executes a member's own graph.
type plan struct {
	workflows []*planWorkflow
	stages    map[uint64]*stage
	order     []uint64 // stages, dependencies before dependents
}

// newPlan fingerprints every workflow, finds fingerprints that occur more
// than once across the suite (including homologous twins inside a single
// workflow), and builds the stage DAG over those the suite reads in more
// than one place. Fingerprinting digests every bound source and lookup (a
// record file reads its bytes), so workers members do it at a time, until
// ctx is done; results and the first error are taken in member order,
// whatever workers is. Validating a graph sorts it, so the runs that later
// share it only read its memoized order.
func newPlan(ctx context.Context, wfs []Workflow, workers int) (*plan, error) {
	p := &plan{stages: make(map[uint64]*stage)}

	allFPs := make([]map[workflow.NodeID]uint64, len(wfs))
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
				allFPs[i], errs[i] = closureFingerprints(ctx, wf.Graph, wf.Bindings)
			}
		}()
	}
	wg.Wait()
	// A fingerprint every occurrence of which feeds one activity, all of
	// one fingerprint occurring as often, is read only by that activity:
	// it is computed inside its consumer's stage. feeds holds that
	// consumer's fingerprint; forks the fingerprints read otherwise.
	counts := make(map[uint64]int)
	feeds := make(map[uint64]uint64)
	forks := make(map[uint64]bool)
	for i, wf := range wfs {
		if errs[i] != nil {
			return nil, fmt.Errorf("share: workflow %s: %w", wfName(wf, i), errs[i])
		}
		for _, id := range wf.Graph.Activities() {
			fp := allFPs[i][id]
			counts[fp]++
			cs := wf.Graph.Consumers(id)
			if len(cs) != 1 || wf.Graph.Node(cs[0]).Kind != workflow.KindActivity {
				forks[fp] = true
			} else if c, seen := feeds[fp]; seen && c != allFPs[i][cs[0]] {
				forks[fp] = true
			} else {
				feeds[fp] = allFPs[i][cs[0]]
			}
		}
	}

	for i, wf := range wfs {
		pw := &planWorkflow{wf: wf, fps: allFPs[i], shared: make(map[workflow.NodeID]bool)}
		for _, id := range wf.Graph.Activities() {
			fp := pw.fps[id]
			pw.shared[id] = counts[fp] >= 2 && (forks[fp] || counts[feeds[fp]] != counts[fp])
		}
		var cuts []workflow.NodeID
		pw.need, cuts = pw.closure(wf.Graph.Targets()...)
		for _, id := range cuts {
			p.ensureStage(pw, id)
		}
		pw.deps = p.countReads(pw.fpsOf(cuts))
		p.workflows = append(p.workflows, pw)
	}

	p.orderStages()
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

// fpsOf returns the sorted distinct fingerprints of ids.
func (pw *planWorkflow) fpsOf(ids []workflow.NodeID) []uint64 {
	set := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		set[pw.fps[id]] = true
	}
	return sortedKeys(set)
}

// ensureStage registers the stage of the stage node id of pw, after
// the stages its closure reads, unless a member planned before registered
// its fingerprint: that member's graph is the one its producer runs execute.
func (p *plan) ensureStage(pw *planWorkflow, id workflow.NodeID) {
	fp := pw.fps[id]
	if _, ok := p.stages[fp]; ok {
		return
	}
	need, cuts := pw.closure(id)
	for _, c := range cuts {
		p.ensureStage(pw, c)
	}
	p.stages[fp] = &stage{
		slot:   slot{done: make(chan struct{})},
		fp:     fp,
		key:    cacheKey(fp),
		schema: pw.wf.Graph.Node(id).Out.Clone(),
		pw:     pw,
		id:     id,
		need:   need,
		deps:   p.countReads(pw.fpsOf(cuts)),
	}
}

// countReads counts one planned read of each of the stages deps and
// returns deps.
func (p *plan) countReads(deps []uint64) []uint64 {
	for _, d := range deps {
		p.stages[d].readers++
	}
	return deps
}

// orderStages sorts the stage DAG dependencies-first (and by fingerprint
// within a level, for determinism).
func (p *plan) orderStages() {
	visited := make(map[uint64]bool, len(p.stages))
	var emit func(fp uint64)
	emit = func(fp uint64) {
		if visited[fp] {
			return
		}
		visited[fp] = true
		for _, d := range p.stages[fp].deps {
			emit(d)
		}
		p.order = append(p.order, fp)
	}
	for _, fp := range sortedKeys(p.stages) {
		emit(fp)
	}
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
