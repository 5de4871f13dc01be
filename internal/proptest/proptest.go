// Package proptest is the property-based test layer. It holds two kinds
// of checks over seeded generated workflows.
//
// The metamorphic checks guard the incremental successor machinery:
// copy-on-write graph derivation (workflow.Graph.Mutate), delta cost
// recomputation (cost.EvaluateIncremental and the per-activity memo) and
// signature splicing (workflow.SpliceSignature). CheckExpansion applies
// every applicable transition and asserts that every incremental shortcut
// agrees with the from-scratch computation; CheckSearchMutationLeak that
// no rewrite ever leaks a mutation into the state it was derived from.
//
// The equivalence runner is the paper's "same input, same output" (§2.2)
// held across run configurations: CheckRuns runs one workflow in each
// Cell of the solo matrix (partitions, journal, transient faults,
// crash-restart resume), CheckSuite a shared suite in one SuiteCell
// (workers, cache budget, spill, partitions, journal), and every run must
// be engine.SameRun as its Reference, besides each axis' own obligations.
// CheckSearchJournal is the search half of journal invariance.
//
// The checks return errors rather than calling into testing.T so the
// same checks can back unit tests, the -race CI jobs and ad-hoc
// investigation alike.
package proptest

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"etlopt/internal/cost"
	"etlopt/internal/dsl"
	"etlopt/internal/equiv"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// costTol is the relative tolerance for the incremental-vs-scratch cost
// cross-check. Incremental evaluation copies untouched nodes bit-for-bit
// and recomputes dirty ones with the same pure model, so the comparison
// is essentially exact; the tolerance only absorbs the one legitimate
// difference, the re-summation order of Costing.Total.
const costTol = 1e-9

// relDiff returns |a-b| scaled by the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// compareCostings cross-checks an incrementally derived costing against a
// from-scratch evaluation of the same graph: identical node sets,
// per-node cardinalities and costs within costTol, and totals within
// costTol.
func compareCostings(inc, scratch *cost.Costing) error {
	ids := scratch.Nodes()
	if got := len(inc.Nodes()); got != len(ids) {
		return fmt.Errorf("incremental costing covers %d nodes, scratch %d", got, len(ids))
	}
	// Nodes are in ascending ID order, so a failure always reports the same
	// (smallest) offending node.
	for _, id := range ids {
		if !inc.Has(id) {
			return fmt.Errorf("node %d missing from incremental costing", id)
		}
		if got, want := inc.Cost(id), scratch.Cost(id); relDiff(got, want) > costTol {
			return fmt.Errorf("node %d cost: incremental %v vs scratch %v", id, got, want)
		}
		if got, want := inc.Card(id), scratch.Card(id); relDiff(got, want) > costTol {
			return fmt.Errorf("node %d cardinality: incremental %v vs scratch %v", id, got, want)
		}
	}
	if relDiff(inc.Total, scratch.Total) > costTol {
		return fmt.Errorf("total: incremental %v vs scratch %v", inc.Total, scratch.Total)
	}
	return nil
}

// Successors returns every applicable transition of g: the search's
// successor function (all legal SWA, FAC and DIS via transitions.Enumerate)
// plus every legal MER of adjacent unary pairs, which the search applies
// proactively rather than enumerating. SPL only applies to merged
// activities, so CheckExpansion exercises it on each MER result instead.
func Successors(g *workflow.Graph) []*transitions.Result {
	out := transitions.Enumerate(g)
	for _, grp := range g.LocalGroups() {
		for i := 0; i+1 < len(grp); i++ {
			if res, err := transitions.Merge(g, grp[i], grp[i+1]); err == nil {
				out = append(out, res)
			}
		}
	}
	return out
}

// serialized renders g to its canonical DSL text, falling back to the
// adjacency-list rendering for graphs the DSL cannot express (merged
// packages). Both forms are deterministic, which is all the byte-compare
// leak checks need.
func serialized(g *workflow.Graph) string {
	if text, err := dsl.Serialize(g); err == nil {
		return text
	}
	return g.String()
}

// checkResult verifies one transition result against its parent:
//
//	(a) delta cost recomputation — EvaluateIncremental seeded with the
//	    parent's costing and the transition's dirty set must agree with a
//	    from-scratch Evaluate of the derived graph on every node;
//	(b) signature splicing — when the transition describes itself as a
//	    local segment replacement and SpliceSignature accepts it, the
//	    spliced string must equal the full Graph.Signature() re-rendering.
//
// It returns the incremental costing.
func checkResult(parentSig string, base *cost.Costing, model cost.Model, singleChain bool, res *transitions.Result) (*cost.Costing, error) {
	inc, err := cost.EvaluateIncremental(base, res.Graph, model, res.Dirty)
	if err != nil {
		return nil, fmt.Errorf("%s: incremental evaluation: %w", res.Description(), err)
	}
	scratch, err := cost.Evaluate(res.Graph, model)
	if err != nil {
		return nil, fmt.Errorf("%s: scratch evaluation: %w", res.Description(), err)
	}
	if err := compareCostings(inc, scratch); err != nil {
		return nil, fmt.Errorf("%s: %w", res.Description(), err)
	}
	if res.SigOld != "" {
		full := res.Graph.Signature()
		if spliced, ok := workflow.SpliceSignature(parentSig, res.SigOld, res.SigNew, singleChain); ok && spliced != full {
			return nil, fmt.Errorf("%s: spliced signature %q != full rendering %q (parent %q, %q->%q)",
				res.Description(), spliced, full, parentSig, res.SigOld, res.SigNew)
		}
	}
	return inc, nil
}

// checkGroupJob searches the orderings of one local group of g the way HS
// does — breadth-first over legal swaps, up to maxStates of them — with
// every successor's signature spliced at one site, located for the job's
// first swap and anchored by the group's tags. Whatever the site answers,
// from whichever state of the job, must equal the full rendering, and so
// must the one-shot SpliceSignature's answer; where only the site answers,
// its run must hold every tag of the group. sig is g's signature.
func checkGroupJob(g *workflow.Graph, sig string, grp workflow.LocalGroup, singleChain bool, maxStates int) error {
	var site workflow.SpliceSite
	located := false
	anchors := g.Tags(grp)
	type jobState struct {
		g   *workflow.Graph
		sig string
	}
	frontier := []jobState{{g, sig}}
	seen := map[string]bool{sig: true}
	for len(frontier) > 0 && len(seen) < maxStates {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, a := range grp {
			consumers := cur.g.Consumers(a)
			if len(consumers) != 1 {
				continue
			}
			res, err := transitions.Swap(cur.g, a, consumers[0])
			if err != nil {
				continue // the group's last activity, or an illegal swap
			}
			full := res.Graph.Signature()
			if !located {
				site, located = workflow.LocateSplice(cur.sig, res.SigOld, singleChain, anchors...)
			}
			at, okAt := site.Splice(cur.sig, res.SigOld, res.SigNew)
			one, okOne := workflow.SpliceSignature(cur.sig, res.SigOld, res.SigNew, singleChain, anchors...)
			if okAt && at != full || okOne && one != full {
				return fmt.Errorf("%s in the job of group %v: located splice %q, one-shot %q (ok=%v), full rendering %q (parent %q)",
					res.Description(), grp, at, one, okOne, full, cur.sig)
			}
			if okAt && !okOne {
				have := strings.Split(site.Run(), ".")
				for _, tag := range anchors {
					if !slices.Contains(have, tag) {
						return fmt.Errorf("%s in the job of group %v: the site answered in run %q, which lacks tag %s (parent %q)",
							res.Description(), grp, site.Run(), tag, cur.sig)
					}
				}
			}
			if !seen[full] {
				seen[full] = true
				frontier = append(frontier, jobState{res.Graph, full})
			}
		}
	}
	return nil
}

// CheckExpansion applies every applicable transition to the scenario's
// initial state and asserts the metamorphic invariants of incremental
// expansion: delta cost == from-scratch cost, spliced signature == full
// signature — one-shot, and through one located site per local group's
// search — MER∘SPL restores the state signature, the parent state is
// byte-identical after all of its children have been derived and
// rewritten (the copy-on-write leak guard), and — for up to verifyData
// sampled successors — empirical equivalence of parent and child (in its
// SPL form) on the scenario's generated data.
func CheckExpansion(sc *templates.Scenario, model cost.Model, verifyData int) error {
	g0 := sc.Graph
	before := serialized(g0)
	sig0 := g0.Signature()
	base, err := cost.Evaluate(g0, model)
	if err != nil {
		return fmt.Errorf("costing initial state: %w", err)
	}
	singleChain := len(g0.Targets()) == 1

	succs := Successors(g0)
	for _, res := range succs {
		inc, err := checkResult(sig0, base, model, singleChain, res)
		if err != nil {
			return err
		}
		if res.Applied.Op == "SWA" {
			// A swap keeps its parent's nodes, so its costing is an overlay
			// of the flat base; the swap back is costed from the overlay,
			// flat again.
			a := res.Applied.Args
			if back, err := transitions.Swap(res.Graph, a[1], a[0]); err == nil {
				if _, err := checkResult(res.Graph.Signature(), inc, model, singleChain, back); err != nil {
					return fmt.Errorf("%s then %w", res.Description(), err)
				}
			}
		}
		if res.Applied.Op != "MER" {
			continue
		}
		// Exercise SPL on the merged state, and check the §3.3 identity
		// SPL(MER(S)) ≡ S at the signature level (initial states carry no
		// merged packages, so splitting the fresh package restores the
		// exact pre-merge rendering).
		mg := res.Graph
		msig := mg.Signature()
		mbase, err := cost.Evaluate(mg, model)
		if err != nil {
			return fmt.Errorf("%s: costing merged state: %w", res.Description(), err)
		}
		sres, err := transitions.Split(mg, res.Dirty[0])
		if err != nil {
			return fmt.Errorf("%s: splitting the merged package back: %w", res.Description(), err)
		}
		if _, err := checkResult(msig, mbase, model, singleChain, sres); err != nil {
			return err
		}
		if got := sres.Graph.Signature(); got != sig0 {
			return fmt.Errorf("%s then %s: signature %q, want the original %q",
				res.Description(), sres.Description(), got, sig0)
		}
	}

	for _, grp := range g0.LocalGroups() {
		if len(grp) < 2 {
			continue
		}
		if err := checkGroupJob(g0, sig0, grp, singleChain, 24); err != nil {
			return err
		}
	}

	// Copy-on-write leak guard: deriving and rewriting every child above
	// must leave the parent byte-identical.
	if after := serialized(g0); after != before {
		return fmt.Errorf("expanding %d successors mutated the parent state:\nbefore:\n%s\nafter:\n%s",
			len(succs), before, after)
	}
	if got := g0.Signature(); got != sig0 {
		return fmt.Errorf("expanding successors changed the parent signature %q -> %q", sig0, got)
	}

	if verifyData > 0 && len(succs) > 0 {
		bindings := sc.Bind()
		n := verifyData
		if n > len(succs) {
			n = len(succs)
		}
		for k := 0; k < n; k++ {
			res := succs[k*len(succs)/n]
			// The engine runs no package: a child is held to its parent in
			// its SPL form, the graph a search returns.
			flat, _, err := transitions.SplitAll(res.Graph)
			if err != nil {
				return fmt.Errorf("%s: splitting for empirical verification: %w", res.Description(), err)
			}
			ok, diff, err := equiv.VerifyEmpirical(g0, flat, bindings)
			if err != nil {
				return fmt.Errorf("%s: empirical verification: %w", res.Description(), err)
			}
			if !ok {
				return fmt.Errorf("%s: derived state not equivalent on data: %s", res.Description(), diff)
			}
		}
	}
	return nil
}

// CheckSearchMutationLeak walks the state space breadth-first for maxDepth
// levels, keeping at most width states per level, and byte-compares every
// parent's serialization before and after its expansion. Depth matters:
// grandchildren rewrite graphs that structurally share nodes with graphs
// already on the frontier, which is exactly where a copy-on-write
// ownership bug shows up as retroactive corruption — and, because no data
// race is involved, where the race detector cannot see it.
func CheckSearchMutationLeak(g0 *workflow.Graph, maxDepth, width int) error {
	frontier := []*workflow.Graph{g0}
	seen := map[string]bool{g0.Signature(): true}
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		var next []*workflow.Graph
		for _, parent := range frontier {
			before := serialized(parent)
			sigBefore := parent.Signature()
			succs := Successors(parent)
			if after := serialized(parent); after != before {
				return fmt.Errorf("depth %d: expanding %d successors mutated the parent:\nbefore:\n%s\nafter:\n%s",
					depth, len(succs), before, after)
			}
			if got := parent.Signature(); got != sigBefore {
				return fmt.Errorf("depth %d: expansion changed the parent signature %q -> %q", depth, sigBefore, got)
			}
			for _, res := range succs {
				sig := res.Graph.Signature()
				if seen[sig] {
					continue
				}
				seen[sig] = true
				if len(next) < width {
					next = append(next, res.Graph)
				}
			}
		}
		frontier = next
	}
	return nil
}
