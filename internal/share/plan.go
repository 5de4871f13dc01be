package share

import (
	"context"
	"fmt"
	"sort"
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

// stage is one shared intermediate: the producer subgraph that computes it,
// residualized at any deeper shared intermediates it consumes.
type stage struct {
	fp       uint64
	key      string
	schema   data.Schema
	graph    *workflow.Graph
	bindings map[string]data.Recordset
	// deps are the fingerprints of shared intermediates this stage's
	// producer graph consumes (its injected sources).
	deps []uint64
	// idmap maps the exemplar workflow's node IDs to producer-graph IDs.
	idmap map[workflow.NodeID]workflow.NodeID
	// origFPs maps those exemplar node IDs to their closure fingerprints,
	// so a producer run can publish per-fingerprint row counts that any
	// suite member can use to reconstruct its solo NodeRows.
	origFPs map[workflow.NodeID]uint64
	// injected maps producer-graph injected source IDs to the dep
	// fingerprint they stand for.
	injected map[workflow.NodeID]uint64
	// target is the artificial target's producer-graph node ID.
	target workflow.NodeID
}

// planWorkflow is one suite member with its residual execution graph: the
// original graph with every maximal shared intermediate's upstream closure
// replaced by an injected source fed from the cache.
type planWorkflow struct {
	wf  Workflow
	fps map[workflow.NodeID]uint64
	// residual is the graph actually executed for this workflow.
	residual *workflow.Graph
	// idmap maps original node IDs to residual IDs (cut nodes map to
	// their injected sources, whose scan count equals the cut node's
	// output count).
	idmap map[workflow.NodeID]workflow.NodeID
	// injected maps residual injected-source IDs to stage fingerprints.
	injected map[workflow.NodeID]uint64
	// deps are the fingerprints of the stages this workflow consumes.
	deps []uint64
}

// plan is the suite's stage DAG: every shared intermediate appears exactly
// once, producer stages are ordered dependencies-first, and each workflow
// is reduced to a residual graph over injected shared sources.
type plan struct {
	workflows []*planWorkflow
	stages    map[uint64]*stage
	order     []uint64 // stages, dependencies before dependents
}

// newPlan fingerprints every workflow, finds fingerprints that occur more
// than once across the suite (including homologous twins inside a single
// workflow), and builds the stage DAG and residual graphs. Fingerprinting
// digests every bound source and lookup (a record file reads its bytes), so
// workers members do it at a time, until ctx is done; results and the first
// error are taken in member order, whatever workers is.
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
	counts := make(map[uint64]int)
	for i, wf := range wfs {
		if errs[i] != nil {
			return nil, fmt.Errorf("share: workflow %s: %w", wfName(wf, i), errs[i])
		}
		for _, id := range wf.Graph.Activities() {
			counts[allFPs[i][id]]++
		}
	}
	shared := func(fps map[workflow.NodeID]uint64, g *workflow.Graph, id workflow.NodeID) bool {
		return g.Node(id).Kind == workflow.KindActivity && counts[fps[id]] >= 2
	}

	for i, wf := range wfs {
		fps := allFPs[i]
		pw := &planWorkflow{wf: wf, fps: fps}
		isCut := func(id workflow.NodeID) bool { return shared(fps, wf.Graph, id) }
		roots := wf.Graph.Targets()
		sub, err := p.extract(wf, fps, isCut, roots, 0)
		if err != nil {
			return nil, fmt.Errorf("share: workflow %s: %w", wfName(wf, i), err)
		}
		pw.residual, pw.idmap, pw.injected, pw.deps = sub.graph, sub.idmap, sub.injected, sub.deps
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

// subgraph is the result of one extraction: a fresh executable graph plus
// the maps relating it to the original.
type subgraph struct {
	graph    *workflow.Graph
	idmap    map[workflow.NodeID]workflow.NodeID
	injected map[workflow.NodeID]uint64
	deps     []uint64
}

// extract builds a fresh graph containing the original nodes reachable
// upstream from roots, stopping the descent at cut nodes (other than the
// roots themselves): each cut node becomes an injected source recordset
// named after its fingerprint, and a producer stage for that fingerprint
// is registered recursively. Walking backwards from the roots and cutting
// at the *first* shared activity encountered is what makes the chosen
// shared subgraphs maximal.
func (p *plan) extract(wf Workflow, fps map[workflow.NodeID]uint64, isCut func(workflow.NodeID) bool, roots []workflow.NodeID, depth int) (*subgraph, error) {
	if depth > wf.Graph.Len() {
		return nil, fmt.Errorf("stage recursion exceeded graph size") // cycle guard; unreachable on a valid DAG
	}
	g := wf.Graph
	rootSet := make(map[workflow.NodeID]bool, len(roots))
	for _, r := range roots {
		rootSet[r] = true
	}
	need := make(map[workflow.NodeID]bool)
	cut := make(map[workflow.NodeID]bool)
	var visit func(id workflow.NodeID)
	visit = func(id workflow.NodeID) {
		if need[id] {
			return
		}
		need[id] = true
		if isCut(id) && !rootSet[id] {
			cut[id] = true
			return
		}
		for _, pr := range g.Providers(id) {
			visit(pr)
		}
	}
	for _, r := range roots {
		need[r] = true
		for _, pr := range g.Providers(r) {
			visit(pr)
		}
	}

	// Register a producer stage for every cut fingerprint before building
	// this graph, so the stage map is complete bottom-up.
	for _, id := range sortedIDs(cut) {
		if err := p.ensureStage(wf, fps, isCut, id, depth); err != nil {
			return nil, err
		}
	}

	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	sub := &subgraph{
		graph:    workflow.NewGraph(),
		idmap:    make(map[workflow.NodeID]workflow.NodeID, len(need)),
		injected: make(map[workflow.NodeID]uint64),
	}
	depSet := make(map[uint64]bool)
	for _, id := range order {
		if !need[id] {
			continue
		}
		n := g.Node(id)
		var nid workflow.NodeID
		switch {
		case cut[id]:
			fp := fps[id]
			nid = sub.graph.AddRecordset(&workflow.RecordsetRef{
				Name:     stageName(fp),
				Schema:   n.Out.Clone(),
				IsSource: true,
			})
			sub.injected[nid] = fp
			depSet[fp] = true
		case n.Kind == workflow.KindActivity:
			nid = sub.graph.AddActivity(n.Act)
		default:
			nid = sub.graph.AddRecordset(n.RS)
		}
		sub.idmap[id] = nid
		if !cut[id] {
			for _, pr := range g.Providers(id) {
				sub.graph.MustAddEdge(sub.idmap[pr], nid)
			}
		}
	}
	// Derive the activity schemas the canonical way rather than copying
	// them node by node: the residual preserves provider order and the
	// injected sources carry the cut nodes' exact output schemas, so the
	// regeneration reproduces the original schemata exactly.
	if err := sub.graph.RegenerateSchemata(); err != nil {
		return nil, err
	}
	sub.deps = sortedFPs(depSet)
	return sub, nil
}

// ensureStage registers the producer stage for the cut node's fingerprint,
// extracting its closure (residualized at deeper cuts) from the first
// workflow that exhibits it.
func (p *plan) ensureStage(wf Workflow, fps map[workflow.NodeID]uint64, isCut func(workflow.NodeID) bool, id workflow.NodeID, depth int) error {
	fp := fps[id]
	if _, ok := p.stages[fp]; ok {
		return nil
	}
	sub, err := p.extract(wf, fps, isCut, []workflow.NodeID{id}, depth+1)
	if err != nil {
		return err
	}
	root := sub.idmap[id]
	out := wf.Graph.Node(id).Out
	target := sub.graph.AddRecordset(&workflow.RecordsetRef{
		Name:     stageName(fp),
		Schema:   out.Clone(),
		IsTarget: true,
	})
	sub.graph.MustAddEdge(root, target)
	if err := sub.graph.Validate(); err != nil {
		return fmt.Errorf("stage %s: %w", cacheKey(fp), err)
	}

	origFPs := make(map[workflow.NodeID]uint64, len(sub.idmap))
	for orig := range sub.idmap {
		origFPs[orig] = fps[orig]
	}
	p.stages[fp] = &stage{
		fp:       fp,
		key:      cacheKey(fp),
		schema:   out.Clone(),
		graph:    sub.graph,
		bindings: wf.Bindings,
		deps:     sub.deps,
		idmap:    sub.idmap,
		origFPs:  origFPs,
		injected: sub.injected,
		target:   target,
	}
	return nil
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
	for _, fp := range sortedFPs(stageSet(p.stages)) {
		emit(fp)
	}
}

func stageSet(m map[uint64]*stage) map[uint64]bool {
	s := make(map[uint64]bool, len(m))
	for fp := range m {
		s[fp] = true
	}
	return s
}

func sortedFPs(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for fp := range set {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(set map[workflow.NodeID]bool) []workflow.NodeID {
	out := make([]workflow.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
