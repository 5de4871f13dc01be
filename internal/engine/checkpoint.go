package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// ETL workflows run in constrained time windows, and the paper's related
// work (ref [12], Labio et al., "Efficient Resumption of Interrupted
// Warehouse Loads") motivates restart efficiency: when a nightly load
// fails halfway, re-running everything may not fit the remaining window.
// CheckpointRunner executes a workflow with per-node staging: each
// completed node's output is persisted, so a re-run after a crash resumes
// from the frontier of completed nodes instead of from the sources. It is
// the stage hook of the engine's node driver (runNodes), not a second
// executor: the driver asks it to restore a node before running it and to
// persist the node after. Under a runner the driver fuses nothing — every
// node stays its own stage — because a resumed run must reproduce
// per-activity row counts from per-node files; what a checkpoint stages
// is decided when the stage-file format is next versioned (ROADMAP 4).
//
// The staging area is a directory of CSV files keyed by node ID plus a
// manifest recording the workflow signature; resuming with a *different*
// workflow (signature mismatch) discards the staging area, since the
// intermediate results of one state are not valid for another.
type CheckpointRunner struct {
	engine *Engine
	dir    string
}

// NewCheckpointRunner wraps an engine with staging in dir, creating the
// directory if needed.
func NewCheckpointRunner(e *Engine, dir string) (*CheckpointRunner, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: creating checkpoint dir: %w", err)
	}
	return &CheckpointRunner{engine: e, dir: dir}, nil
}

// manifestPath returns the path of the staging manifest.
func (c *CheckpointRunner) manifestPath() string {
	return filepath.Join(c.dir, "MANIFEST")
}

func (c *CheckpointRunner) nodePath(id workflow.NodeID) string {
	return filepath.Join(c.dir, fmt.Sprintf("node-%d.csv", id))
}

// Run executes the workflow through the wrapped engine's node driver —
// in its mode, at its partition count, with its journal, metrics, fault
// plan and retry policy — checkpointing each completed node. If the
// staging area already holds results for this exact workflow (matching
// signature), completed nodes are loaded from disk instead of recomputed —
// the resumption path. On success the staging area is removed.
//
// A cancelled ctx aborts between nodes with an error wrapping ctx.Err()
// and leaves the staging area in place: the nodes the driver completed stay
// checkpointed and a later Run of the same workflow resumes from them, as
// after the crash the runner exists to survive. A source read ahead that
// the driver had not taken yet is not among them: it is scanned again.
func (c *CheckpointRunner) Run(ctx context.Context, g *workflow.Graph) (*RunResult, error) {
	return c.engine.run(ctx, g, c)
}

// prepareStaging validates or initializes the manifest. A signature
// mismatch (the workflow changed since the interrupted run) clears the
// staging area — stale intermediates are unusable.
func (c *CheckpointRunner) prepareStaging(sig string) error {
	b, err := os.ReadFile(c.manifestPath())
	switch {
	case err == nil:
		if strings.TrimSpace(string(b)) == sig {
			return nil // resumable
		}
		if err := c.Clear(); err != nil {
			return err
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("engine: reading checkpoint manifest: %w", err)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(c.manifestPath(), []byte(sig+"\n"), 0o644)
}

// Staged reports which node IDs currently have staged outputs.
func (c *CheckpointRunner) Staged() ([]workflow.NodeID, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []workflow.NodeID
	for _, e := range entries {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "node-%d.csv", &id); err == nil {
			ids = append(ids, workflow.NodeID(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Clear removes the staging area.
func (c *CheckpointRunner) Clear() error {
	if err := os.RemoveAll(c.dir); err != nil {
		return fmt.Errorf("engine: clearing checkpoint dir: %w", err)
	}
	return nil
}

// saveStage atomically persists one node's output, in materialized order.
func (c *CheckpointRunner) saveStage(id workflow.NodeID, schema data.Schema, rows data.Rows) error {
	return data.WriteCSVFile(c.nodePath(id), schema, rows)
}

// staged reports whether a node has a stage file; asked once per node and run.
func (c *CheckpointRunner) staged(id workflow.NodeID) bool {
	_, err := os.Stat(c.nodePath(id))
	return err == nil
}

// loadStage reads the output of a staged node.
func (c *CheckpointRunner) loadStage(id workflow.NodeID) (data.Rows, error) {
	_, rows, err := data.ReadCSVFile(c.nodePath(id))
	if err != nil {
		return nil, fmt.Errorf("engine: reading stage %d: %w", id, err)
	}
	return rows, nil
}
