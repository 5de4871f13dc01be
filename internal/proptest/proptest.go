// Package proptest is the property-based metamorphic test layer guarding
// the incremental successor machinery: copy-on-write graph derivation
// (workflow.Graph.Mutate), delta cost recomputation
// (cost.EvaluateIncremental and the per-activity memo) and signature
// splicing (workflow.SpliceSignature). Its checks generate seeded random
// workflows, apply every applicable transition, and assert that every
// incremental shortcut agrees with the from-scratch computation and that
// no rewrite ever leaks a mutation into the state it was derived from —
// the invariants every search result silently depends on.
//
// The helpers return errors rather than calling into testing.T so the
// same checks can back unit tests, the -race CI job and ad-hoc
// investigation alike.
package proptest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/equiv"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
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
func checkResult(parentSig string, base *cost.Costing, model cost.Model, singleChain bool, res *transitions.Result) error {
	inc, err := cost.EvaluateIncremental(base, res.Graph, model, res.Dirty)
	if err != nil {
		return fmt.Errorf("%s: incremental evaluation: %w", res.Description, err)
	}
	scratch, err := cost.Evaluate(res.Graph, model)
	if err != nil {
		return fmt.Errorf("%s: scratch evaluation: %w", res.Description, err)
	}
	if err := compareCostings(inc, scratch); err != nil {
		return fmt.Errorf("%s: %w", res.Description, err)
	}
	if res.SigOld != "" {
		full := res.Graph.Signature()
		if spliced, ok := workflow.SpliceSignature(parentSig, res.SigOld, res.SigNew, singleChain); ok && spliced != full {
			return fmt.Errorf("%s: spliced signature %q != full rendering %q (parent %q, %q->%q)",
				res.Description, spliced, full, parentSig, res.SigOld, res.SigNew)
		}
	}
	return nil
}

// checkGroupJob searches the orderings of one local group of g the way HS
// does — breadth-first over legal swaps, up to maxStates of them — with
// every successor's signature spliced at one site, located for the job's
// first swap. Whatever the site answers, from whichever state of the job,
// must equal the full rendering, and it may answer only where the one-shot
// SpliceSignature does. sig is g's signature.
func checkGroupJob(g *workflow.Graph, sig string, grp workflow.LocalGroup, singleChain bool, maxStates int) error {
	var site workflow.SpliceSite
	located := false
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
				site, located = workflow.LocateSplice(cur.sig, res.SigOld, singleChain)
			}
			at, okAt := site.Splice(cur.sig, res.SigOld, res.SigNew)
			one, okOne := workflow.SpliceSignature(cur.sig, res.SigOld, res.SigNew, singleChain)
			if okAt && (at != full || !okOne || one != full) {
				return fmt.Errorf("%s in the job of group %v: located splice %q, one-shot %q (ok=%v), full rendering %q (parent %q)",
					res.Description, grp, at, one, okOne, full, cur.sig)
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
// sampled successors — empirical equivalence of parent and child on the
// scenario's generated data.
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
		if err := checkResult(sig0, base, model, singleChain, res); err != nil {
			return err
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
			return fmt.Errorf("%s: costing merged state: %w", res.Description, err)
		}
		sres, err := transitions.Split(mg, res.Dirty[0])
		if err != nil {
			return fmt.Errorf("%s: splitting the merged package back: %w", res.Description, err)
		}
		if err := checkResult(msig, mbase, model, singleChain, sres); err != nil {
			return err
		}
		if got := sres.Graph.Signature(); got != sig0 {
			return fmt.Errorf("%s then %s: signature %q, want the original %q",
				res.Description, sres.Description, got, sig0)
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
			ok, diff, err := equiv.VerifyEmpirical(g0, res.Graph, bindings)
			if err != nil {
				return fmt.Errorf("%s: empirical verification: %w", res.Description, err)
			}
			if !ok {
				return fmt.Errorf("%s: derived state not equivalent on data: %s", res.Description, diff)
			}
		}
	}
	return nil
}

// CheckPartitionInvariance executes the scenario's workflow once in
// materialized mode and once in partition-parallel mode at each of the
// given partition counts, asserting the parallel engine's metamorphic
// contract: for every target, the output multiset agrees AND the rows are
// byte-identical in order (strictly stronger than multiset equality — the
// deterministic order-stable merge is part of the contract), and the
// per-node row counts agree. The partition count must be observationally
// invisible.
func CheckPartitionInvariance(sc *templates.Scenario, partitions []int) error {
	mat, err := engine.New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		return fmt.Errorf("materialized run: %w", err)
	}
	for _, p := range partitions {
		par, err := engine.New(sc.Bind(),
			engine.WithMode(engine.Parallel), engine.WithPartitions(p)).Run(context.Background(), sc.Graph)
		if err != nil {
			return fmt.Errorf("parallel run P=%d: %w", p, err)
		}
		if len(par.Targets) != len(mat.Targets) {
			return fmt.Errorf("P=%d: %d targets, materialized loaded %d", p, len(par.Targets), len(mat.Targets))
		}
		names := make([]string, 0, len(mat.Targets))
		for name := range mat.Targets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			want := mat.Targets[name]
			got, ok := par.Targets[name]
			if !ok {
				return fmt.Errorf("P=%d: target %s missing from parallel run", p, name)
			}
			if !want.EqualMultiset(got) {
				diffs := want.DiffMultiset(got, 3)
				return fmt.Errorf("P=%d: target %s multiset differs: %v", p, name, diffs)
			}
			if err := sameRowOrder(want, got); err != nil {
				return fmt.Errorf("P=%d: target %s not byte-identical to materialized: %w", p, name, err)
			}
		}
		ids := make([]workflow.NodeID, 0, len(mat.NodeRows))
		for id := range mat.NodeRows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if got, want := par.NodeRows[id], mat.NodeRows[id]; got != want {
				return fmt.Errorf("P=%d: node %d emitted %d rows, materialized %d", p, id, got, want)
			}
		}
	}
	return nil
}

// sameRowOrder requires bit-identity: equal lengths and equal digests —
// the same typed values in the same positions (Rows.Digest tells Int(2)
// from Float(2)). The scan only locates the first row that differs.
func sameRowOrder(want, got data.Rows) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d vs %d rows", len(got), len(want))
	}
	if want.Digest() == got.Digest() {
		return nil
	}
	for i := range want {
		if (data.Rows{want[i]}).Digest() != (data.Rows{got[i]}).Digest() {
			return fmt.Errorf("row %d: %s, want %s (kinds included)", i, got[i], want[i])
		}
	}
	return fmt.Errorf("rows digest differently")
}

// CheckJournalInvariance asserts the flight recorder's metamorphic
// contract: journal collection is write-only, so attaching a journal
// (and pprof labels) must be observationally invisible. The scenario's
// HS search is run plain and journaled at each worker count — best cost,
// best signature and visited/generated counts must be bit-identical —
// and its workflow is executed in partition-parallel mode plain and
// journaled at each partition count — target rows must be byte-identical
// in order and per-node row counts equal. Every recorded journal must
// also parse back with paired run boundaries and a summary trailer.
func CheckJournalInvariance(sc *templates.Scenario, workers, partitions []int) error {
	ctx := context.Background()
	for _, w := range workers {
		// A bounded budget keeps the check fast; determinism must hold at
		// any budget, so a partial search is as good a probe as a full one.
		opts := core.Options{Workers: w, IncrementalCost: true, MaxStates: 3000}
		plain, err := core.Heuristic(ctx, sc.Graph, opts)
		if err != nil {
			return fmt.Errorf("W=%d: plain search: %w", w, err)
		}
		var buf bytes.Buffer
		opts.Journal = obs.NewJournal(&buf, nil)
		opts.PprofLabels = true
		rec, err := core.Heuristic(ctx, sc.Graph, opts)
		if err != nil {
			return fmt.Errorf("W=%d: journaled search: %w", w, err)
		}
		if err := opts.Journal.Close(); err != nil {
			return fmt.Errorf("W=%d: closing journal: %w", w, err)
		}
		if rec.BestCost != plain.BestCost {
			return fmt.Errorf("W=%d: best cost %v with journal, %v without", w, rec.BestCost, plain.BestCost)
		}
		if got, want := rec.Best.Signature(), plain.Best.Signature(); got != want {
			return fmt.Errorf("W=%d: best signature %q with journal, %q without", w, got, want)
		}
		if rec.Visited != plain.Visited || rec.Generated != plain.Generated {
			return fmt.Errorf("W=%d: visited/generated %d/%d with journal, %d/%d without",
				w, rec.Visited, rec.Generated, plain.Visited, plain.Generated)
		}
		if err := journalWellFormed(buf.Bytes()); err != nil {
			return fmt.Errorf("W=%d: %w", w, err)
		}
	}
	for _, p := range partitions {
		eopts := []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(p)}
		plain, err := engine.New(sc.Bind(), eopts...).Run(ctx, sc.Graph)
		if err != nil {
			return fmt.Errorf("P=%d: plain run: %w", p, err)
		}
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		rec, err := engine.New(sc.Bind(), append(eopts, engine.WithJournal(j), engine.WithPprofLabels())...).
			Run(ctx, sc.Graph)
		if err != nil {
			return fmt.Errorf("P=%d: journaled run: %w", p, err)
		}
		if err := j.Close(); err != nil {
			return fmt.Errorf("P=%d: closing journal: %w", p, err)
		}
		names := make([]string, 0, len(plain.Targets))
		for name := range plain.Targets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := sameRowOrder(plain.Targets[name], rec.Targets[name]); err != nil {
				return fmt.Errorf("P=%d: target %s not byte-identical with journal attached: %w", p, name, err)
			}
		}
		ids := make([]workflow.NodeID, 0, len(plain.NodeRows))
		for id := range plain.NodeRows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if got, want := rec.NodeRows[id], plain.NodeRows[id]; got != want {
				return fmt.Errorf("P=%d: node %d emitted %d rows with journal, %d without", p, id, got, want)
			}
		}
		if err := journalWellFormed(buf.Bytes()); err != nil {
			return fmt.Errorf("P=%d: %w", p, err)
		}
	}
	return nil
}

// journalWellFormed parses a recorded journal and checks its framing:
// paired run boundaries, exactly one trailing summary, and drop/error
// accounting agreeing with the file's own contents.
func journalWellFormed(raw []byte) error {
	evs, err := obs.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("journal unreadable: %w", err)
	}
	if len(evs) == 0 {
		return fmt.Errorf("journal empty")
	}
	counts := map[string]int{}
	for _, e := range evs {
		counts[e.T]++
	}
	if counts[obs.EventRun]%2 != 0 {
		return fmt.Errorf("journal has %d run boundaries, want start/end pairs", counts[obs.EventRun])
	}
	if counts[obs.EventSummary] != 1 {
		return fmt.Errorf("journal has %d summary events, want exactly 1", counts[obs.EventSummary])
	}
	last := evs[len(evs)-1]
	if last.T != obs.EventSummary {
		return fmt.Errorf("journal does not end with the summary trailer (last event %q)", last.T)
	}
	if body := int64(len(evs) - 1); last.Events+last.Dropped < body {
		return fmt.Errorf("summary accounts for %d events (+%d dropped), file holds %d",
			last.Events, last.Dropped, body)
	}
	return nil
}

// CheckFaultRecoveryEquivalence asserts the fault subsystem's headline
// guarantee on one scenario: any faulty run that ultimately succeeds —
// via per-node retries or a checkpoint resume — is bit-identical to the
// clean run in row order, per-node row counts, and the journal's own
// per-node row counters. Three probes per scenario:
//
//	(a) a seeded transient plan with a retry budget, in parallel mode at
//	    each partition count: the run must converge and match the clean
//	    materialized reference exactly, and its journal must record the
//	    faults and the retries that recovered them;
//	(b) a rate-1 permanent plan: the run must fail with a typed
//	    *fault.Injected naming node, partition, and injection site, no
//	    matter the retry budget;
//	(c) crash-restart resume, at each partition count: a checkpointed run
//	    killed mid-workflow by a permanent fault, re-run fault-free over
//	    the same staging dir, must resume from the staged frontier and
//	    reproduce the clean result exactly.
func CheckFaultRecoveryEquivalence(sc *templates.Scenario, seed int64, partitions []int) error {
	ctx := context.Background()
	clean, err := engine.New(sc.Bind()).Run(ctx, sc.Graph)
	if err != nil {
		return fmt.Errorf("clean run: %w", err)
	}

	for _, p := range partitions {
		// (a) Transient faults under retry. MaxPerKey 1 bounds the failed
		// attempts of one node by its injection-site depth (restore, start,
		// exchange, emit), so a budget of 8 guarantees convergence.
		plan := fault.NewPlan(seed, 0.35)
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		rec, err := engine.New(sc.Bind(),
			engine.WithMode(engine.Parallel), engine.WithPartitions(p),
			engine.WithJournal(j),
			engine.WithFaultPlan(plan),
			engine.WithRetry(fault.Policy{MaxAttempts: 8, Seed: seed}),
		).Run(ctx, sc.Graph)
		if err != nil {
			return fmt.Errorf("P=%d: faulted run failed despite retries (%d faults fired): %w", p, plan.Injected(), err)
		}
		if cerr := j.Close(); cerr != nil {
			return fmt.Errorf("P=%d: closing journal: %w", p, cerr)
		}
		if err := sameRunResult(clean, rec); err != nil {
			return fmt.Errorf("P=%d: recovered run diverges from clean run: %w", p, err)
		}
		if err := faultJournalConsistent(buf.Bytes(), clean, plan.Injected()); err != nil {
			return fmt.Errorf("P=%d: %w", p, err)
		}

		// (b) A permanent fault fails the run with full attribution,
		// regardless of the retry budget.
		pplan := fault.NewPlan(seed+1, 1, fault.WithKind(fault.Permanent))
		_, err = engine.New(sc.Bind(),
			engine.WithMode(engine.Parallel), engine.WithPartitions(p),
			engine.WithFaultPlan(pplan),
			engine.WithRetry(fault.Policy{MaxAttempts: 8, Seed: seed}),
		).Run(ctx, sc.Graph)
		if err == nil {
			return fmt.Errorf("P=%d: permanent rate-1 plan did not fail the run", p)
		}
		var inj *fault.Injected
		if !errors.As(err, &inj) {
			return fmt.Errorf("P=%d: permanent failure is not a typed *fault.Injected: %v", p, err)
		}
		if inj.Kind != fault.Permanent || inj.Site == "" || inj.Node < 0 || inj.Part < 0 {
			return fmt.Errorf("P=%d: permanent fault attribution incomplete: %+v", p, inj)
		}
	}

	// (c) Crash-restart resume through the checkpoint runner, at each
	// partition count. Permanent faults at stage/start points kill the run
	// mid-workflow, leaving the frontier staged; the fault-free re-run must
	// resume and match.
	dir, err := os.MkdirTemp("", "etlopt-faultrec-")
	if err != nil {
		return fmt.Errorf("staging dir: %w", err)
	}
	defer os.RemoveAll(dir)
	for _, p := range partitions {
		stage := filepath.Join(dir, fmt.Sprintf("stage-%d", p))
		mode := []engine.Option{engine.WithMode(engine.Parallel), engine.WithPartitions(p)}
		crashPlan := fault.NewPlan(seed+2, 0.5, fault.WithKind(fault.Permanent),
			fault.WithSites(fault.SiteStage, fault.SiteNodeStart))
		cr, err := engine.NewCheckpointRunner(engine.New(sc.Bind(), append(mode, engine.WithFaultPlan(crashPlan))...), stage)
		if err != nil {
			return err
		}
		_, crashErr := cr.Run(ctx, sc.Graph)
		staged, _ := cr.Staged()
		var rbuf bytes.Buffer
		rj := obs.NewJournal(&rbuf, nil)
		cr2, err := engine.NewCheckpointRunner(engine.New(sc.Bind(), append(mode, engine.WithJournal(rj))...), stage)
		if err != nil {
			return err
		}
		res, err := cr2.Run(ctx, sc.Graph)
		if err != nil {
			return fmt.Errorf("P=%d: resume run failed after crash (%v): %w", p, crashErr, err)
		}
		if cerr := rj.Close(); cerr != nil {
			return fmt.Errorf("P=%d: closing resume journal: %w", p, cerr)
		}
		if err := sameRunResult(clean, res); err != nil {
			return fmt.Errorf("P=%d: resumed run diverges from clean run: %w", p, err)
		}
		if crashErr != nil && len(staged) > 0 {
			evs, err := obs.ReadJournal(bytes.NewReader(rbuf.Bytes()))
			if err != nil {
				return fmt.Errorf("P=%d: resume journal unreadable: %w", p, err)
			}
			resumes := 0
			for _, e := range evs {
				if e.T == obs.EventResume {
					resumes++
				}
			}
			if resumes == 0 {
				return fmt.Errorf("P=%d: crash left %d staged outputs but the resumed run journaled no resume events", p, len(staged))
			}
		}
	}
	return nil
}

// sameRunResult requires a recovered run to be indistinguishable from the
// clean one: the same targets with byte-identical row order, and the same
// per-node row counts.
func sameRunResult(want, got *engine.RunResult) error {
	if len(got.Targets) != len(want.Targets) {
		return fmt.Errorf("%d targets, clean run loaded %d", len(got.Targets), len(want.Targets))
	}
	names := make([]string, 0, len(want.Targets))
	for name := range want.Targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows, ok := got.Targets[name]
		if !ok {
			return fmt.Errorf("target %s missing", name)
		}
		if err := sameRowOrder(want.Targets[name], rows); err != nil {
			return fmt.Errorf("target %s: %w", name, err)
		}
	}
	ids := make([]workflow.NodeID, 0, len(want.NodeRows))
	for id := range want.NodeRows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if got.NodeRows[id] != want.NodeRows[id] {
			return fmt.Errorf("node %d emitted %d rows, clean run %d", id, got.NodeRows[id], want.NodeRows[id])
		}
	}
	return nil
}

// faultJournalConsistent checks a recovered run's journal: well-formed
// framing, exactly one node event per completed activity carrying the
// clean run's row count (the journal's row counters are part of the
// bit-identity contract), attributed fault events, and — whenever the
// plan fired — at least one retry event backing the recovery.
func faultJournalConsistent(raw []byte, clean *engine.RunResult, injected int) error {
	if err := journalWellFormed(raw); err != nil {
		return err
	}
	evs, err := obs.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	nodeEvents := make(map[int]int)
	nodeRows := make(map[int]int64)
	faults, retries := 0, 0
	for _, e := range evs {
		switch e.T {
		case obs.EventNode:
			ids, _, _ := strings.Cut(e.Node, ":")
			id, err := strconv.Atoi(ids)
			if err != nil {
				return fmt.Errorf("node event with unparseable key %q: %w", e.Node, err)
			}
			nodeEvents[id]++
			nodeRows[id] = e.Rows
		case obs.EventFault:
			faults++
			if e.Node == "" || e.Action == "" || e.Detail == "" {
				return fmt.Errorf("fault event missing attribution: %+v", e)
			}
		case obs.EventRetry:
			retries++
			if e.Node == "" || e.Attempt < 2 {
				return fmt.Errorf("retry event malformed: %+v", e)
			}
		}
	}
	ids := make([]workflow.NodeID, 0, len(clean.NodeRows))
	for id := range clean.NodeRows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c, ok := nodeEvents[int(id)]
		if !ok {
			continue // recordsets journal no node events
		}
		if c != 1 {
			return fmt.Errorf("node %d journaled %d node events, want 1 per completed node", id, c)
		}
		if nodeRows[int(id)] != int64(clean.NodeRows[id]) {
			return fmt.Errorf("node %d journal rows %d, clean run emitted %d", id, nodeRows[int(id)], clean.NodeRows[id])
		}
	}
	if injected > 0 {
		if faults == 0 {
			return fmt.Errorf("plan fired %d faults but the journal holds no fault events", injected)
		}
		if retries == 0 {
			return fmt.Errorf("run recovered from %d faults with no journaled retries", injected)
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
