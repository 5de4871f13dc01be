package core

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// Heuristic runs the HS algorithm exactly as structured in the paper's
// Fig. 7:
//
//	Pre-processing: apply the MER transitions dictated by the merge
//	constraints; find the homologous activities H, the distributable
//	activities D and the local groups L of the initial state.
//	Phase I:   all possible swap transitions within each local group.
//	Phase II:  for each homologous pair that can be shifted forward to its
//	           binary activity, factorize (FAC).
//	Phase III: for each state of Phase II and each distributable activity
//	           that can be shifted backward to its binary, distribute (DIS).
//	Phase IV:  repeat the local-group swap optimization on every state the
//	           previous phases produced.
//	Post:      split all merged activities and return S_MIN.
//
// Local groups are disjoint by construction (Heuristic 4 partitions the
// unary activities), so Phases I and IV optimize them concurrently in the
// Options.Workers pool; see optimizeLocalGroups for why that cannot
// change the result. A cancelled ctx aborts the search at the next
// expansion boundary and returns ctx.Err().
func Heuristic(ctx context.Context, g0 *workflow.Graph, opts Options) (*Result, error) {
	return heuristicSearch(ctx, "HS", g0, opts, false)
}

// HSGreedy runs the greedy variant of HS: Phases I and IV accept a swap
// only when it improves on the current minimum (hill-climbing) instead of
// exhaustively exploring each local group's orderings. Per §4.2 this is
// substantially faster, matches HS on small workflows, and degrades on
// medium and large ones.
func HSGreedy(ctx context.Context, g0 *workflow.Graph, opts Options) (*Result, error) {
	return heuristicSearch(ctx, "HS-Greedy", g0, opts, true)
}

func heuristicSearch(ctx context.Context, alg string, g0 *workflow.Graph, opts Options, greedy bool) (*Result, error) {
	return newSearch(ctx, opts.withDefaults()).heuristic(alg, g0, greedy)
}

// heuristic is the body of HS and HS-Greedy, run on a prepared search.
func (s *search) heuristic(alg string, g0 *workflow.Graph, greedy bool) (*Result, error) {
	opts := s.opts
	start := time.Now()
	s.m.runEvent("start", alg)
	defer s.m.runEvent("end", alg)

	s0, err := s.initialState(g0)
	if err != nil {
		return nil, err
	}

	// Pre-processing (Ln 4-8): apply MER per the merge constraints.
	preEnd := s.m.phase("preprocess")
	cur := s0
	for _, pair := range opts.MergeConstraints {
		s.m.attempt("MER")
		res, err := transitions.Merge(cur.g, pair[0], pair[1])
		if err != nil {
			if transitions.IsRejection(err) {
				continue
			}
			return nil, err
		}
		st, err := s.makeState(cur, res, s.signatureOf(cur, res))
		if err != nil {
			return nil, err
		}
		s.m.accept("MER")
		cur = st
	}
	homologous := cur.g.FindHomologousPairs()
	distributable := cur.g.FindDistributableActivities()
	// Distribution eligibility follows the *activity*, not the node: DIS
	// clones inherit their origin's tag, so a selection distributed over
	// one union can be pushed further through the next union up the tree,
	// while activities factorized in Phase II (whose tags are combined)
	// are not distributed again, per the paper's Phase III note.
	distributableTags := make(map[string]bool, len(distributable))
	for _, da := range distributable {
		distributableTags[cur.g.Node(da.Activity).Act.Tag] = true
	}

	preEnd()
	sMin := cur
	s.m.bestCost.Set(sMin.costing.Total)

	// Phase I (Ln 9-13): swap optimization inside each local group.
	if !opts.DisablePhaseI {
		p1End := s.m.phase("phaseI")
		sMin = s.optimizeLocalGroups(sMin, greedy)
		s.m.bestCost.Set(sMin.costing.Total)
		p1End()
	}

	visited := []*state{sMin}

	// Phase II (Ln 14-20): shift homologous pairs forward and factorize.
	p2End := s.m.phase("phaseII")
	for _, hp := range homologous {
		if !s.budgetLeft() {
			break
		}
		base := sMin
		if base.g.Node(hp.A) == nil || base.g.Node(hp.B) == nil || base.g.Node(hp.Binary) == nil {
			continue // consumed by an earlier factorization
		}
		sh1, err := transitions.ShiftForward(base.g, hp.A, hp.Binary)
		if err != nil {
			continue
		}
		s.countShift(sh1.Swaps)
		sh2, err := transitions.ShiftForward(sh1.Graph, hp.B, hp.Binary)
		if err != nil {
			continue
		}
		s.countShift(sh2.Swaps)
		s.m.attempt("FAC")
		res, err := transitions.Factorize(sh2.Graph, hp.Binary, hp.A, hp.B)
		if err != nil {
			continue
		}
		// FAC restructures branches (SigOld is empty), so the signature is
		// rendered in full and only interned.
		sig := s.visited.Intern(res.Graph.Signature())
		if !s.admit(sig) {
			s.m.prune("FAC")
			continue
		}
		s.m.accept("FAC")
		st, err := s.makeStateFull(base, res, sh1.Applied, sh2.Applied, sig)
		if err != nil {
			return nil, err
		}
		if st.costing.Total < sMin.costing.Total {
			sMin = st
			s.m.best("FAC", sMin.costing.Total)
		}
		visited = append(visited, st)
	}
	p2End()

	// Phase III (Ln 21-28): distribute over the accumulated states. The
	// distributable activities of the *initial* state are used — activities
	// factorized in Phase II are not distributed again — and the unvisited
	// list is processed as a worklist: a state produced by one distribution
	// is itself examined for further distributions, so several selections
	// can be pushed into the branches of the same flow.
	p3End := s.m.phase("phaseIII")
	unvisited := append([]*state(nil), visited...)
	for len(unvisited) > 0 && s.budgetLeft() {
		si := unvisited[0]
		unvisited = unvisited[1:]
		s.m.frontier.Set(float64(len(unvisited)))
		for _, da := range si.g.FindDistributableActivities() {
			if !s.budgetLeft() {
				break
			}
			if !distributableTags[si.g.Node(da.Activity).Act.Tag] {
				continue
			}
			sh, err := transitions.ShiftBackward(si.g, da.Activity, da.Binary)
			if err != nil {
				continue
			}
			s.countShift(sh.Swaps)
			s.m.attempt("DIS")
			res, err := transitions.Distribute(sh.Graph, da.Binary, da.Activity)
			if err != nil {
				continue
			}
			sig := s.visited.Intern(res.Graph.Signature())
			if !s.admit(sig) {
				s.m.prune("DIS")
				continue
			}
			s.m.accept("DIS")
			st, err := s.makeStateFull(si, res, sh.Applied, nil, sig)
			if err != nil {
				return nil, err
			}
			improving := st.costing.Total < si.costing.Total
			if st.costing.Total < sMin.costing.Total {
				sMin = st
				s.m.best("DIS", sMin.costing.Total)
			}
			visited = append(visited, st)
			// Expand only improving distributions: chains that keep
			// lowering the cost (a selection marching down a ladder of
			// unions) continue; neutral or worsening placements are
			// recorded for Phase IV but not expanded, pruning the
			// placement lattice. The greedy variant commits to the first
			// improving distribution per state instead of branching over
			// every alternative.
			if improving {
				unvisited = append(unvisited, st)
				if greedy {
					break
				}
			}
		}
	}

	p3End()

	// Phase IV (Ln 29-35): repeat the swap optimization on every state
	// produced so far, since factorizations and distributions changed the
	// contents of the local groups. States are processed cheapest-first so
	// that a bounded budget is spent where Phase IV is most likely to find
	// the optimum.
	p4End := s.m.phase("phaseIV")
	sort.SliceStable(visited, func(i, j int) bool {
		return visited[i].costing.Total < visited[j].costing.Total
	})
	for _, si := range visited {
		if !s.budgetLeft() {
			break
		}
		opt := s.optimizeLocalGroups(si, greedy)
		if opt.costing.Total < sMin.costing.Total {
			sMin = opt
			s.m.best("SWA", sMin.costing.Total)
		}
	}
	p4End()

	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	// Post-processing (Ln 36): split merged activities — done by
	// finishResult, whose SplitAll mirrors the reciprocal SPL constraints.
	return finishResult(alg, s0, sMin, s, start, true)
}

// swapStep is one SWA of a local group's search: the pair it swapped and
// its description in the paper's notation.
type swapStep struct {
	pair [2]workflow.NodeID
	desc string
}

// groupState is a state inside one local group's search, carrying the SWA
// transitions that produced it from the group job's base state so the
// winning ordering can be replayed onto any graph that shares the group.
type groupState struct {
	st    *state
	swaps *chain[swapStep]
}

func (gs *groupState) extend(st *state, pair [2]workflow.NodeID, desc string) *groupState {
	return &groupState{st: st, swaps: gs.swaps.push(swapStep{pair, desc})}
}

// optimizeLocalGroups runs the Phase I/IV swap optimization: it optimizes
// every local group of the state and composes the winning orderings; the
// cheapest combination seen is returned. Groups partition the unary
// activities (Heuristic 4) and a unary activity's output cardinality is
// invariant under reordering its group (selectivities multiply
// commutatively), so each group's search — legality, costs, and therefore
// its best ordering — is independent of every other group's ordering.
// That independence is what lets the groups run concurrently in the
// worker pool without coordination: each job explores its group against
// the shared base state (read-only; transitions clone before rewriting),
// and a sequential reduction in group order replays the admission logs
// and applies the winning swap sequences, keeping counters, visited set
// and the returned state identical for every worker count. MaxStates is
// enforced at group granularity: once the budget is exhausted, remaining
// groups are skipped (uncounted), exactly as the sequential search would
// have skipped them.
func (s *search) optimizeLocalGroups(st *state, greedy bool) *state {
	if !s.budgetLeft() {
		return st
	}
	groups := slices.DeleteFunc(st.g.LocalGroups(), func(grp workflow.LocalGroup) bool { return len(grp) < 2 })
	if len(groups) == 0 {
		return st
	}
	// Prime the shared graph's memoized topological order before the jobs
	// start reading it concurrently.
	st.g.TopoSort()

	// A job is released to the pool only while the admissions of the jobs
	// already finished leave budget: the reducer below stops at the first
	// outcome past MaxStates, so exploring that group would be thrown away.
	// Jobs are claimed in index order, so every finished job precedes the
	// one being released and spent never exceeds what the reducer will
	// have counted by then — exact at one worker, and at higher widths at
	// most the jobs in flight are wasted.
	outcomes := make([]*groupJob, len(groups))
	var spent atomic.Int64
	spent.Store(int64(s.count))
	s.pool.run(len(groups), func(i int) {
		if spent.Load() >= int64(s.opts.MaxStates) {
			return
		}
		job := s.newGroupJob(st, groups[i])
		if greedy {
			job.best = job.greedy()
		} else {
			job.best = job.full()
		}
		outcomes[i] = job
		spent.Add(int64(len(job.admits)))
	})

	// Deterministic reduction in group order.
	cur := st
	for _, out := range outcomes {
		if !s.budgetLeft() || out == nil {
			break
		}
		s.m.attemptBatch("SWA", out.attempts)
		for _, sig := range out.admits {
			if s.admit(sig) {
				s.m.accept("SWA")
			} else {
				s.m.prune("SWA")
			}
		}
		if out.best.swaps == nil {
			continue
		}
		next, err := s.replaySwaps(cur, out.best)
		if err != nil {
			continue
		}
		if next.costing.Total < cur.costing.Total {
			cur = next
		}
	}
	return cur
}

// replaySwaps applies a group's winning swap sequence to cur's graph and
// costs the composed state once, incrementally over the union of the
// swaps' dirty sets. Replays cannot legally fail — the swaps were legal
// against the base state and other groups' reorderings do not touch this
// group's activities or schemata — but a rejection is reported rather
// than trusted.
//
// The signature is maintained incrementally across the replay: each swap
// splices its segment into the running signature, at one site, and both
// the trace steps and the final state carry the interned handle — the
// same string instance the visited set stores — instead of a post-hoc
// re-rendering of the graph, so trace and dedup bookkeeping are provably
// about the same state.
func (s *search) replaySwaps(cur *state, gs *groupState) (*state, error) {
	g := cur.g
	sig := cur.sig
	var site workflow.SpliceSite
	trace := cur.trace
	var dirty []workflow.NodeID
	var steps []TraceStep
	for _, sw := range gs.swaps.slice() {
		res, err := transitions.Swap(g, sw.pair[0], sw.pair[1])
		if err != nil {
			return nil, err
		}
		g = res.Graph
		sig = s.spliceOrFull(&site, sig, res)
		dirty = append(dirty, res.Dirty...)
		trace = trace.push(sw.desc)
		if s.opts.Trace {
			steps = append(steps, stepOf(res.Applied, s.visited.Intern(sig), 0, false))
		}
	}
	costing, err := s.evaluate(cur, g, dirty)
	if err != nil {
		return nil, err
	}
	st := &state{g: g, costing: costing, sig: s.visited.Intern(sig), trace: trace, steps: cur.steps}
	if len(steps) > 0 {
		// The composed state is the one the search costs; stamp the total
		// on the last replayed swap.
		last := &steps[len(steps)-1]
		last.Cost = costing.Total
		last.Costed = true
	}
	for _, step := range steps {
		st.steps = st.steps.push(step)
	}
	return st, nil
}

// groupJob is the search of one local group against a base state. Every
// state it generates is the base with the group's activities reordered,
// so its signature differs from the base's only inside the run of tags
// the group's chain renders as: site is that run, located by the job's
// first splice, and every candidate is spliced there (search.splice).
//
// The reducer reads the best ordering found, the admission log — every
// signature the job would have passed to search.admit, in discovery
// order — and the number of SWA applications attempted. It replays the
// log and commits the attempts with it, so the global counters and the
// visited set end up exactly as if the group had been optimized inline,
// and a job that is never read leaves no trace.
type groupJob struct {
	s    *search
	base *state
	ids  []workflow.NodeID // the group's activities, ascending: the order their pairs are tried in
	site workflow.SpliceSite
	buf  [][2]workflow.NodeID // what pairs returns
	// segs holds the signature segments of the swaps tried so far: a pair
	// comes up in many states and its activities' tags never change.
	segs     map[[2]workflow.NodeID][2]string
	best     *groupState
	admits   []string
	attempts int
}

func (s *search) newGroupJob(base *state, grp workflow.LocalGroup) *groupJob {
	j := &groupJob{s: s, base: base, ids: slices.Clone(grp), segs: make(map[[2]workflow.NodeID][2]string)}
	slices.Sort(j.ids)
	return j
}

// pairs enumerates the provider→consumer pairs of the group's activities
// on g, providers in ascending ID order so results are deterministic. The
// next call reuses the slice.
func (j *groupJob) pairs(g *workflow.Graph) [][2]workflow.NodeID {
	j.buf = j.buf[:0]
	for _, id := range j.ids {
		for _, c := range g.Consumers(id) {
			if _, member := slices.BinarySearch(j.ids, c); member {
				j.buf = append(j.buf, [2]workflow.NodeID{id, c})
			}
		}
	}
	return j.buf
}

// full explores, breadth-first, every ordering of the group's activities
// reachable through legal swaps, returning the cheapest state — HS's
// exhaustive-within-a-group behaviour. The exploration is seeded with the
// hill-climbing result so that, under a bounded budget, the full search
// never returns a worse ordering than the greedy variant would. The
// exploration is bounded by Options.GroupCap; it runs entirely against
// job-local state so several groups can search concurrently.
func (j *groupJob) full() *groupState {
	s := j.s
	best := j.greedy()
	frontier := []*groupState{best}
	seen := map[string]bool{j.base.sig: true, best.st.sig: true}
	generated := 0
	for len(frontier) > 0 && s.ctx.Err() == nil && generated < s.opts.GroupCap {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, pair := range j.pairs(cur.st.g) {
			j.attempts++
			res, sig := j.swapUnseen(cur.st, pair, seen)
			if res == nil {
				continue
			}
			j.admits = append(j.admits, sig)
			generated++
			st2, err := s.makeState(cur.st, res, sig)
			if err != nil {
				continue
			}
			gs2 := cur.extend(st2, pair, res.Description)
			if st2.costing.Total < best.st.costing.Total {
				best = gs2
			}
			frontier = append(frontier, gs2)
			if generated >= s.opts.GroupCap || s.ctx.Err() != nil {
				break
			}
		}
	}
	return best
}

// swapUnseen applies SWA(pair) to parent and returns the successor with
// its interned signature, or nil when the swap is rejected or leads to a
// signature already in seen; a new signature is added to seen. It
// dedupes before it derives: a swap's signature follows from the parent's
// and the two tags alone, so it is spliced first and a duplicate is
// dropped without building the child. Every signature in seen got there
// through a successful derivation, so whether the skipped swap would have
// been legal changes nothing. When the splice is not provably exact the
// child is derived and rendered in full. Under `-tags etldebug` skipped
// candidates are derived anyway and audited against the full rendering.
func (j *groupJob) swapUnseen(parent *state, pair [2]workflow.NodeID, seen map[string]bool) (*transitions.Result, string) {
	segs, ok := j.segs[pair]
	if !ok {
		segs[0], segs[1], _ = transitions.SwapSegments(parent.g, pair[0], pair[1])
		j.segs[pair] = segs
	}
	sig, spliced := j.s.splice(&j.site, parent.sig, segs[0], segs[1]) // refuses empty segments
	if spliced && seen[sig] && !workflow.DebugCOW {
		return nil, ""
	}
	res, err := transitions.Swap(parent.g, pair[0], pair[1])
	if err != nil {
		return nil, ""
	}
	if spliced {
		auditSplice(sig, res.Graph)
	} else {
		sig = res.Graph.Signature()
	}
	if seen[sig] {
		return nil, ""
	}
	sig = j.s.visited.Intern(sig)
	seen[sig] = true
	return res, sig
}

// greedy performs the HS-Greedy variant of Phases I and IV: a single pass
// over the base state's adjacent pairs, applying a swap only when it
// lowers the cost of the current minimum — the paper's "swaps only those
// that lead to a state with less cost than the existing minimum". One
// pass (rather than iterating to a fixpoint) is what makes HS-Greedy fast
// but "unstable" on large workflows (§4.2): an improving swap further
// down the group can be missed when an earlier pair was processed first.
func (j *groupJob) greedy() *groupState {
	s := j.s
	cur := &groupState{st: j.base}
	for _, pair := range j.pairs(j.base.g) {
		if s.ctx.Err() != nil {
			break
		}
		j.attempts++
		res, err := transitions.Swap(cur.st.g, pair[0], pair[1])
		if err != nil {
			continue
		}
		sig := s.visited.Intern(s.spliceOrFull(&j.site, cur.st.sig, res))
		j.admits = append(j.admits, sig)
		st2, err := s.makeState(cur.st, res, sig)
		if err != nil {
			continue
		}
		if st2.costing.Total < cur.st.costing.Total {
			cur = cur.extend(st2, pair, res.Description)
		}
	}
	return cur
}
