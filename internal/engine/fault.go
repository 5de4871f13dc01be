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
// exchange, and (under a checkpoint runner) stage/restore. Node start and
// emit are a stage's sites: a fused path of row-local activities has one
// set, under its last member's ID. Every fired fault is journaled and
// counted; a nil plan (the default) adds no checks on hot paths beyond a
// nil test.
func WithFaultPlan(p *fault.Plan) Option { return func(e *Engine) { e.faults = p } }

// WithRetry attaches a per-stage retry policy: a stage — a fused path of
// row-local activities, or any other node — that fails with a transient
// error (notably injected transient faults) is re-run as a whole with the
// policy's capped, deterministically jittered backoff. Side effects are
// retry-safe by construction — target loads and checkpoint stages happen
// strictly after a stage's last injection point and nothing is counted
// or journaled before it succeeds, so a retried stage never loads, stages
// or counts twice. The zero policy (the default) disables retries.
func WithRetry(p fault.Policy) Option { return func(e *Engine) { e.retry = p } }

// checkFault consults the fault plan at one injection point, recording a
// fault event when it fires. Nil-plan calls are a single pointer test.
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
	e.rec.Emit(obs.FaultEvent(nodeKey(id, n), part, string(site), kind.String()))
	return err
}

// runNode executes one stage's body under the engine's retry policy:
// transient failures are re-run within the attempt budget, each retry
// recorded as a retry event; permanent failures and cancellations surface
// immediately. With retries disabled the body runs exactly once with no
// wrapping overhead.
func (e *Engine) runNode(ctx context.Context, id workflow.NodeID, body func() error) error {
	if !e.retry.Enabled() {
		return body()
	}
	return e.retry.Do(ctx, body, func(attempt int, delay time.Duration, cause error) {
		e.rec.Emit(obs.RetryEvent(e.keys[id], attempt, delay.Seconds(), cause.Error()))
	})
}
