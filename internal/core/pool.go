package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// pool fans independent work items out over a bounded number of
// goroutines. It is the execution substrate of the parallel search: ES
// signs, then costs, the successors of an expanded state through it, and
// HS optimizes disjoint local groups through it. A pool is cheap — it holds no
// persistent goroutines; each run spawns at most min(workers, n) of them
// and waits for all to finish.
//
// Determinism contract: fn(i) must write only to the i-th slot of a
// pre-sized result slice (plus thread-safe shared structures such as the
// visitedSet). The scheduling order of items is unspecified, so any
// order-sensitive reduction must happen after run returns, by index.
type pool struct {
	workers int
	// busy, when non-nil, receives each worker's total time inside one run
	// call — the per-worker utilization feed of the journal's registry. The hook
	// must be safe for concurrent use; nil (the default) keeps run free of
	// clock reads.
	busy func(worker int, d time.Duration)
	// wrap, when non-nil, wraps each worker's item loop — the hook behind
	// Options.PprofLabels, which tags worker goroutines for the CPU
	// profiler. The wrapper must call fn exactly once, synchronously.
	wrap func(worker int, fn func())
}

func newPool(workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	return &pool{workers: workers}
}

// parallel reports whether the pool would actually run n items
// concurrently (more than one worker and more than one item).
func (p *pool) parallel(n int) bool {
	return p.workers > 1 && n > 1
}

// run executes fn(0) … fn(n-1), concurrently when the pool has more than
// one worker. Items are claimed from a shared atomic counter so uneven
// item costs balance across workers.
func (p *pool) run(n int, fn func(i int)) {
	if !p.parallel(n) {
		if p.busy != nil {
			start := time.Now()
			defer func() { p.busy(0, time.Since(start)) }()
		}
		p.wrapped(0, func() {
			for i := 0; i < n; i++ {
				fn(i)
			}
		})
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			if p.busy != nil {
				start := time.Now()
				defer func() { p.busy(worker, time.Since(start)) }()
			}
			p.wrapped(worker, func() {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			})
		}(k)
	}
	wg.Wait()
}

// wrapped runs body under the pool's wrap hook, or directly without one.
func (p *pool) wrapped(worker int, body func()) {
	if p.wrap == nil {
		body()
		return
	}
	p.wrap(worker, body)
}
