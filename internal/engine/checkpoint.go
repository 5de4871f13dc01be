package engine

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// ETL workflows run in constrained time windows, and the paper's related
// work (ref [12], Labio et al., "Efficient Resumption of Interrupted
// Warehouse Loads") motivates restart efficiency: when a nightly load
// fails halfway, re-running everything may not fit the remaining window.
// CheckpointRunner executes a workflow with per-node staging: each
// completed node's output is persisted, so a re-run after a crash resumes
// from the frontier of completed nodes instead of from the sources.
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

// Run executes the workflow, checkpointing each completed node. If the
// staging area already holds results for this exact workflow (matching
// signature), completed nodes are loaded from disk instead of recomputed —
// the resumption path. On success the staging area is removed.
//
// A cancelled ctx aborts between nodes with ctx.Err() and leaves the
// staging area in place: the nodes completed before the cancellation stay
// checkpointed, so a later Run with the same workflow resumes from them —
// cancellation behaves exactly like the crash the runner exists to
// survive.
func (c *CheckpointRunner) Run(ctx context.Context, g *workflow.Graph) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	eng := c.engine.withLookupCache()
	sig := g.Signature()
	if err := c.prepareStaging(sig); err != nil {
		return nil, err
	}

	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	out := make(map[workflow.NodeID]data.Rows, len(order))
	res := &RunResult{
		Targets:  make(map[string]data.Rows),
		NodeRows: make(map[workflow.NodeID]int),
	}
	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := g.Node(id)
		// Targets are never staged: loading is the effect we must not
		// repeat blindly, so targets always re-run from their providers'
		// staged outputs.
		stageable := n.Kind == workflow.KindActivity || len(g.Providers(id)) == 0
		resumed := false
		body := func() error {
			// Resume path: a staged output short-circuits recomputation.
			if stageable {
				if err := eng.checkFault(ctx, fault.SiteRestore, id, n, 0); err != nil {
					return err
				}
				rows, ok, err := c.loadStage(id)
				if err != nil {
					return err
				}
				if ok {
					out[id] = rows
					resumed = true
					return nil
				}
			}
			if err := eng.checkFault(ctx, fault.SiteNodeStart, id, n, 0); err != nil {
				return err
			}
			switch n.Kind {
			case workflow.KindRecordset:
				preds := g.Providers(id)
				if len(preds) == 0 {
					rows, err := eng.scanSource(n)
					if err != nil {
						return err
					}
					out[id] = rows
				} else {
					rows := realign(out[preds[0]], g.Node(preds[0]).Out, n.RS.Schema)
					if err := eng.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
						return err
					}
					out[id] = rows
					res.Targets[n.RS.Name] = rows
					if rs, ok := eng.bindings[n.RS.Name]; ok {
						if err := rs.Load(rows); err != nil {
							return fmt.Errorf("engine: loading target %s: %w", n.RS.Name, err)
						}
					}
				}
			case workflow.KindActivity:
				preds := g.Providers(id)
				inputs := make([]data.Rows, len(preds))
				schemas := make([]data.Schema, len(preds))
				for i, p := range preds {
					inputs[i] = out[p]
					schemas[i] = g.Node(p).Out
				}
				rows, err := eng.execActivity(n, schemas, inputs)
				if err != nil {
					return fmt.Errorf("engine: activity %d (%s): %w", id, n.Label(), err)
				}
				out[id] = rows
			}
			if stageable {
				if err := eng.checkFault(ctx, fault.SiteStage, id, n, 0); err != nil {
					return err
				}
				if err := c.saveStage(id, g.Node(id).Out, out[id]); err != nil {
					return err
				}
			}
			return nil
		}
		if err := eng.runNode(ctx, id, n, body); err != nil {
			return nil, err
		}
		res.NodeRows[id] = len(out[id])
		if resumed {
			c.checkpointEvent("restored", id, n, len(out[id]))
			if j := eng.journal; j != nil {
				j.Emit(obs.ResumeEvent(nodeKey(id, n), len(out[id])))
			}
		} else if stageable {
			c.checkpointEvent("staged", id, n, len(out[id]))
		}
	}

	// The load completed: the staging area has served its purpose.
	if err := c.Clear(); err != nil {
		return nil, err
	}
	return res, nil
}

// checkpointEvent journals one staging step ("staged" when a node's
// output is persisted, "restored" when a resumed run short-circuits a
// node from disk) through the wrapped engine's flight recorder; a no-op
// without one.
func (c *CheckpointRunner) checkpointEvent(action string, id workflow.NodeID, n *workflow.Node, rows int) {
	if j := c.engine.journal; j != nil {
		j.Emit(obs.CheckpointEvent(nodeKey(id, n), action, rows))
	}
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

// saveStage atomically persists one node's output.
func (c *CheckpointRunner) saveStage(id workflow.NodeID, schema data.Schema, rows data.Rows) error {
	tmp := c.nodePath(id) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(schema); err != nil {
		f.Close()
		return err
	}
	for _, rec := range rows {
		fields := make([]string, len(rec))
		for i, v := range rec {
			if v.IsNull() {
				fields[i] = "NULL"
			} else {
				fields[i] = v.String()
			}
		}
		if err := w.Write(fields); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, c.nodePath(id))
}

// loadStage reads one node's staged output if present.
func (c *CheckpointRunner) loadStage(id workflow.NodeID) (data.Rows, bool, error) {
	_, rows, err := data.ReadCSVFile(c.nodePath(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("engine: reading stage %d: %w", id, err)
	}
	return rows, true, nil
}
