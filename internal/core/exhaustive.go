package core

import (
	"context"
	"time"

	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// stateHeap is a typed min-heap of states ordered by cost, giving ES
// best-first exploration: the cheapest known state is expanded next.
// Exploration order does not affect completeness — given enough budget
// every reachable state is generated exactly once — but it makes the
// anytime behaviour of a budget-capped ES far better, mirroring how the
// paper's 40-hour ES runs still had useful "best so far" states to report
// when stopped. The sift routines reproduce container/heap's element
// movement exactly, so pop order (and therefore budget-capped results)
// matches the previous interface{}-based implementation bit for bit.
type stateHeap []*state

func (h stateHeap) Len() int { return len(h) }

func (h stateHeap) less(i, j int) bool { return h[i].costing.Total < h[j].costing.Total }

func (h *stateHeap) push(st *state) {
	*h = append(*h, st)
	h.up(len(*h) - 1)
}

func (h *stateHeap) pop() *state {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	st := old[n]
	old[n] = nil
	*h = old[:n]
	return st
}

func (h *stateHeap) init() {
	n := len(*h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h stateHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h stateHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// candidate is a speculatively evaluated successor: its signature, and —
// when the state was not already known to the visited set — its costed
// state. The sequential reducer decides admission; a candidate whose
// signature loses the dedup race is simply discarded.
type candidate struct {
	sig string
	st  *state
	err error
}

// precost evaluates the signatures and costings of every successor in the
// worker pool. It returns nil when the pool would not actually run
// concurrently, signalling the caller to use the lazy sequential path
// (which skips costing duplicate states entirely — exactly the previous
// single-threaded behaviour). Costing is a pure function of (parent,
// successor graph), so speculative evaluation cannot change the result,
// only precompute it.
func (s *search) precost(cur *state, exps []*transitions.Result) []candidate {
	if !s.pool.parallel(len(exps)) {
		return nil
	}
	cands := make([]candidate, len(exps))
	s.pool.run(len(exps), func(i int) {
		res := exps[i]
		sig := s.signatureOf(cur, res)
		cands[i].sig = sig
		// States the search already admitted will be rejected by the
		// reducer without needing a costing; skip the work. A racing miss
		// here (the reducer admitting a sibling with the same signature)
		// only wastes one evaluation.
		if !s.opts.DisableDedup && s.visited.Contains(sig) {
			return
		}
		cands[i].st, cands[i].err = s.makeState(cur, res, sig)
	})
	return cands
}

// Exhaustive runs the ES algorithm (§4.2): it generates every state
// reachable by applicable transitions, keeping a visited set keyed by
// state signature so no state is generated — or costed — twice. The
// search space is finite, so ES terminates and returns the optimal state;
// in practice the space grows exponentially with workflow size, so the
// state budget and timeout in Options play the role of the paper's
// 40-hour cap, and Result.Terminated reports whether the space was closed
// (the paper's Table 2 annotates non-terminating ES runs the same way).
//
// With Options.Workers > 1, the successors of each expanded state are
// signed and costed concurrently in a worker pool; admission against the
// sharded visited set, budget accounting and the best-state reduction
// (lowest cost, ties broken by signature) remain sequential in expansion
// order, so the result is identical for every worker count.
//
// A cancelled ctx aborts the search at the next expansion boundary and
// returns ctx.Err(); a context deadline is the supported way to bound
// wall-clock time.
func Exhaustive(ctx context.Context, g0 *workflow.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	s := newSearch(ctx, opts)
	s.m.runEvent("start", "ES")
	defer s.m.runEvent("end", "ES")

	s0, err := s.initialState(g0)
	if err != nil {
		return nil, err
	}
	best := s0
	queue := &stateHeap{s0}
	queue.init()
	terminated := true

	for queue.Len() > 0 {
		if !s.budgetLeft() {
			terminated = false
			break
		}
		cur := queue.pop()
		s.m.frontier.Set(float64(queue.Len()))
		exps := transitions.Enumerate(cur.g)
		cands := s.precost(cur, exps)
		for i, res := range exps {
			if !s.budgetLeft() {
				terminated = false
				break
			}
			s.m.attempt(res.Applied.Op)
			var sig string
			if cands != nil {
				sig = cands[i].sig
			} else {
				sig = s.signatureOf(cur, res)
			}
			if !s.admit(sig) {
				s.m.prune(res.Applied.Op)
				continue
			}
			s.m.accept(res.Applied.Op)
			var st *state
			if cands != nil && (cands[i].st != nil || cands[i].err != nil) {
				st, err = cands[i].st, cands[i].err
			} else {
				st, err = s.makeState(cur, res, sig)
			}
			if err != nil {
				return nil, err
			}
			if st.costing.Total < best.costing.Total ||
				(st.costing.Total == best.costing.Total && st.sig < best.sig) {
				best = st
				s.m.best(res.Applied.Op, best.costing.Total)
			}
			queue.push(st)
		}
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	return finishResult("ES", s0, best, s, start, terminated)
}
