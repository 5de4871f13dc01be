package engine

import (
	"context"
	"errors"
	"time"

	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// WithFaultPlan arms a deterministic fault-injection plan: the node
// driver consults it at node start, per-partition emit, repartition
// exchange, and (under a checkpoint runner) stage/restore. Every fired
// fault is journaled and counted; a nil plan (the default) adds no checks
// on hot paths beyond a nil test. Pipelined mode refuses a plan.
func WithFaultPlan(p *fault.Plan) Option { return func(e *Engine) { e.faults = p } }

// WithRetry attaches a per-node retry policy: nodes that fail with a
// transient error (notably injected transient faults) are re-run with
// the policy's capped, deterministically jittered backoff. Side effects
// are retry-safe by construction — target loads and checkpoint stages
// happen strictly after a node's last injection point, so a retried node
// never loads or stages twice. The zero policy (the default) disables
// retries. Pipelined mode refuses an enabled policy.
func WithRetry(p fault.Policy) Option { return func(e *Engine) { e.retry = p } }

// checkFault consults the fault plan at one injection point, journaling
// and counting the fault when it fires. Nil-plan calls are a single
// pointer test.
func (e *Engine) checkFault(ctx context.Context, site fault.Site, id workflow.NodeID, n *workflow.Node, part int) error {
	if e.faults == nil {
		return nil
	}
	err := e.faults.Check(ctx, site, int(id), part)
	if err == nil {
		return nil
	}
	kind := fault.Transient
	var inj *fault.Injected
	if errors.As(err, &inj) {
		kind = inj.Kind
	}
	if e.journal != nil {
		e.journal.Emit(obs.FaultEvent(nodeKey(id, n), part, string(site), kind.String()))
	}
	e.metrics.Counter("engine_faults_injected_total", "site", string(site)).Inc()
	return err
}

// runNode executes one node's body under the engine's retry policy:
// transient failures are re-run within the attempt budget, each retry
// journaled and counted; permanent failures and cancellations surface
// immediately. With retries disabled the body runs exactly once with no
// wrapping overhead.
func (e *Engine) runNode(ctx context.Context, id workflow.NodeID, n *workflow.Node, body func() error) error {
	if !e.retry.Enabled() {
		return body()
	}
	return e.retry.Do(ctx, body, func(attempt int, delay time.Duration, cause error) {
		if e.journal != nil {
			e.journal.Emit(obs.RetryEvent(nodeKey(id, n), attempt, delay.Seconds(), cause.Error()))
		}
		e.metrics.Counter("engine_retries_total", "node", nodeKey(id, n)).Inc()
	})
}

// runNodeJournaled is runNode plus the journal's node event: with a live
// journal the node's wall time — retries included — is measured and one
// node event per completed node is emitted, keeping the journal's
// per-node row counters equal across clean and recovered runs. rows is
// read only after body succeeds.
func (e *Engine) runNodeJournaled(ctx context.Context, id workflow.NodeID, n *workflow.Node, rm *runMetrics, rows func() int, body func() error) error {
	if !rm.journaling() {
		return e.runNode(ctx, id, n, body)
	}
	start := time.Now()
	err := e.runNode(ctx, id, n, body)
	sec := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	rm.nodeEvent(id, rows(), sec)
	return nil
}
