package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// runPipelined executes the workflow with one goroutine per node, records
// streaming between activities in batches over channels — the paper's
// pipelined combination of activities (§2.1) where providers feed
// consumers directly with no intermediate data store.
//
// Streaming activities (selections, not-null and lookup-based key checks,
// functions, projections, surrogate keys, unions) forward batch by batch;
// blocking activities (aggregations, DISTINCT, group-based key checks,
// joins, differences, intersections) buffer the inputs they need. Binary
// activities always drain their inputs concurrently, which keeps diamonds
// (one provider feeding two converging branches) deadlock-free.
//
// Cancellation rides the same `done` channel that propagates node
// failures: a watcher goroutine records ctx.Err() as the run's error and
// closes done, which unblocks every send, drain and select in the node
// goroutines. The watcher may not be scheduled before a small pipeline
// finishes, so ctx.Err() is also read before any node starts and after
// the last one ends: a cancelled context never yields a result.
func (e *Engine) runPipelined(ctx context.Context, g *workflow.Graph, rm *runMetrics) (*RunResult, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: pipelined run cancelled before any node emitted rows after 0 rows: %w", err)
	}

	// One channel per edge.
	type edge struct{ from, to workflow.NodeID }
	chans := make(map[edge]chan data.Rows)
	for _, id := range order {
		for _, c := range g.Consumers(id) {
			chans[edge{id, c}] = make(chan data.Rows, 4)
		}
	}

	var (
		mu       sync.Mutex
		firstErr error
		targets  = make(map[string]data.Rows)
		nodeRows = make(map[workflow.NodeID]int)
		// lastID remembers the most recently emitting node, so a cancelled
		// run can report where it was stopped.
		lastID workflow.NodeID = -1
	)
	done := make(chan struct{})
	var closeOnce sync.Once
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		closeOnce.Do(func() { close(done) })
	}
	countRows := func(id workflow.NodeID, n int) {
		mu.Lock()
		nodeRows[id] += n
		lastID = id
		mu.Unlock()
		rm.rows(id).Add(int64(n))
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-stop:
		}
	}()

	// send forwards a batch to every consumer channel, aborting on failure.
	send := func(id workflow.NodeID, batch data.Rows) bool {
		if len(batch) == 0 {
			return true
		}
		countRows(id, len(batch))
		for _, c := range g.Consumers(id) {
			ch := chans[edge{id, c}]
			// Backpressure probe: with metrics on, a consumer channel that
			// cannot accept immediately counts one stall for the producer.
			// The probe is skipped entirely when metrics are off, so the
			// disabled path is byte-identical to the uninstrumented engine.
			if bp := rm.stall(id); bp != nil {
				select {
				case ch <- batch:
					continue
				default:
					bp.Inc()
				}
			}
			select {
			case ch <- batch:
			case <-done:
				return false
			}
		}
		return true
	}
	closeOut := func(id workflow.NodeID) {
		for _, c := range g.Consumers(id) {
			close(chans[edge{id, c}])
		}
	}
	// drain collects the full content of one input edge.
	drain := func(from, to workflow.NodeID) data.Rows {
		var rows data.Rows
		ch := chans[edge{from, to}]
		for {
			select {
			case batch, ok := <-ch:
				if !ok {
					return rows
				}
				rows = append(rows, batch...)
			case <-done:
				return rows
			}
		}
	}

	var wg sync.WaitGroup
	for _, id := range order {
		n := g.Node(id)
		wg.Add(1)
		go func(id workflow.NodeID, n *workflow.Node) {
			defer wg.Done()
			preds := g.Providers(id)
			switch {
			case n.Kind == workflow.KindRecordset && len(preds) == 0:
				// Source: scan and emit in batches.
				defer closeOut(id)
				rows, err := e.scanSource(n)
				if err != nil {
					fail(err)
					return
				}
				for i := 0; i < len(rows); i += e.batch {
					j := min(i+e.batch, len(rows))
					if !send(id, rows[i:j]) {
						return
					}
				}
			case n.Kind == workflow.KindRecordset:
				// Target: drain, project, load.
				rows := drain(preds[0], id)
				rows = realign(rows, g.Node(preds[0]).Out, n.RS.Schema)
				countRows(id, len(rows))
				mu.Lock()
				targets[n.RS.Name] = rows
				mu.Unlock()
				if rs, ok := e.bindings[n.RS.Name]; ok {
					if err := rs.Load(rows); err != nil {
						fail(fmt.Errorf("engine: loading target %s: %w", n.RS.Name, err))
					}
				}
			case streamable(n.Act):
				// The node driver's row kernels (stage.go) as a chain of one,
				// resolved once and run per channel batch.
				defer closeOut(id)
				chain, err := e.resolveChain(g, []workflow.NodeID{id})
				if err != nil {
					fail(err)
					return
				}
				var sc scratch
				h := rm.latency(id)
				ch := chans[edge{preds[0], id}]
				for {
					var batch data.Rows
					var ok bool
					select {
					case batch, ok = <-ch:
						if !ok {
							return
						}
					case <-done:
						return
					}
					start := time.Now()
					out := pslice{rows: make(data.Rows, 0, len(batch))}
					sc.fit(len(batch), chain)
					if _, err := chain.runBatch(batch, nil, &out, &sc, nil); err != nil {
						fail(fmt.Errorf("engine: activity %d (%s): %w", id, n.Label(), err))
						return
					}
					h.Observe(time.Since(start).Seconds())
					if !send(id, out.rows) {
						return
					}
				}
			case n.Act.Sem.Op == workflow.OpUnion:
				// Stream both inputs concurrently through a merged channel.
				defer closeOut(id)
				merged := make(chan data.Rows, 4)
				var inWG sync.WaitGroup
				for i, p := range preds {
					inWG.Add(1)
					go func(i int, p workflow.NodeID) {
						defer inWG.Done()
						src := g.Node(p).Out
						ch := chans[edge{p, id}]
						for {
							select {
							case batch, ok := <-ch:
								if !ok {
									return
								}
								select {
								case merged <- realign(batch, src, n.Out):
								case <-done:
									return
								}
							case <-done:
								return
							}
						}
					}(i, p)
				}
				go func() { inWG.Wait(); close(merged) }()
				for {
					select {
					case batch, ok := <-merged:
						if !ok {
							return
						}
						if !send(id, batch) {
							return
						}
					case <-done:
						return
					}
				}
			default:
				// Blocking activity: materialize inputs (concurrently for
				// binaries) and run the materialized executor.
				defer closeOut(id)
				inputs := make([]data.Rows, len(preds))
				schemas := make([]data.Schema, len(preds))
				var inWG sync.WaitGroup
				for i, p := range preds {
					schemas[i] = g.Node(p).Out
					inWG.Add(1)
					go func(i int, p workflow.NodeID) {
						defer inWG.Done()
						inputs[i] = drain(p, id)
					}(i, p)
				}
				inWG.Wait()
				select {
				case <-done:
					return
				default:
				}
				var out data.Rows
				err := rm.observeNode(id, func() (err error) {
					out, err = e.execSem(n.Act, n.In, n.Out, schemas, inputs)
					return err
				})
				if err != nil {
					fail(fmt.Errorf("engine: activity %d (%s): %w", id, n.Label(), err))
					return
				}
				for i := 0; i < len(out); i += e.batch {
					j := min(i+e.batch, len(out))
					if !send(id, out[i:j]) {
						return
					}
				}
			}
		}(id, n)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		fail(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
			// Wrap the bare context error with where the pipeline was and
			// how far it had got, keeping errors.Is(err, ctx.Err()) intact.
			total := 0
			for _, n := range nodeRows {
				total += n
			}
			at := "before any node emitted rows"
			if lastID >= 0 {
				at = fmt.Sprintf("at node %d (%s)", lastID, g.Node(lastID).Label())
			}
			return nil, fmt.Errorf("engine: pipelined run cancelled %s after %d rows: %w", at, total, firstErr)
		}
		return nil, firstErr
	}
	return &RunResult{Targets: targets, NodeRows: nodeRows}, nil
}
