package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// ETL workflows run in constrained time windows, and the paper's related
// work (ref [12], Labio et al., "Efficient Resumption of Interrupted
// Warehouse Loads") motivates restart efficiency: when a nightly load
// fails halfway, re-running everything may not fit the remaining window.
// CheckpointRunner executes a workflow with per-stage staging: each
// completed stage's output is persisted, so a re-run after a crash resumes
// from the frontier of completed stages instead of from the sources. It is
// the stage hook of the engine's node driver (runNodes), not a second
// executor: the driver plans the stages of a plain run, asks the runner to
// restore a stage before running it and to persist it after.
//
// The staging area is a typed row file per stage, its last member's output
// (stage-<id>.rows), and a MANIFEST: format version and workflow signature,
// then a checksummed line per stage, appended once its file is in place,
// with each member's row count for a resumed run to report. Another
// workflow's staging area is discarded, one whose manifest cannot be read
// refused. The runner removes only files it wrote, and the directory only
// when that leaves it empty.
type CheckpointRunner struct {
	engine        *Engine
	dir, manifest string
}

// manifestMagic is a MANIFEST's first line, the signature its second; the
// CSV era's MANIFEST was the bare signature.
const manifestMagic = "etlstage 2\n"

// NewCheckpointRunner wraps an engine with staging in dir, which a run
// creates when it needs it (and removes when it leaves it empty).
func NewCheckpointRunner(e *Engine, dir string) (*CheckpointRunner, error) {
	return &CheckpointRunner{engine: e, dir: dir, manifest: filepath.Join(dir, "MANIFEST")}, nil
}

func (c *CheckpointRunner) stagePath(id workflow.NodeID) string {
	return filepath.Join(c.dir, fmt.Sprintf("stage-%d.rows", id))
}

// Run executes the workflow through the wrapped engine's node driver —
// in its mode, at its partition count, with its journal, metrics, fault
// plan and retry policy — checkpointing each completed stage. Stages the
// staging area holds for this exact workflow (matching signature) are
// loaded instead of recomputed — the resumption path. On success the
// runner's files are removed. A cancelled ctx aborts between stages with
// an error wrapping ctx.Err() and leaves the staging area in place, to
// resume from as after a crash; a source read ahead that the driver had not
// taken yet is not staged, and is scanned again.
func (c *CheckpointRunner) Run(ctx context.Context, g *workflow.Graph) (*RunResult, error) {
	return c.engine.run(ctx, g, c)
}

// stageLine renders a stage's manifest line: last member's ID, members' rows, checksum.
func stageLine(id workflow.NodeID, rows []int) string {
	s := strings.Trim(fmt.Sprint(append([]int{int(id)}, rows...)), "[]")
	return fmt.Sprintf("%s %08x\n", s, crc32.ChecksumIEEE([]byte(s)))
}

// readManifest parses the MANIFEST: its signature and each stage's member
// rows by last member ID. A last line without its newline was torn by a
// crash mid-append and names no stage; any other malformed line is an error.
func (c *CheckpointRunner) readManifest() (string, map[workflow.NodeID][]int, error) {
	b, err := os.ReadFile(c.manifest)
	if err != nil {
		return "", nil, err
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 3 || lines[0] != manifestMagic {
		return "", nil, fmt.Errorf("engine: checkpoint dir %s: MANIFEST has no complete version-2 header", c.dir)
	}
	staged := make(map[workflow.NodeID][]int)
	for i, line := range lines[2 : len(lines)-1] { // the last is empty or torn
		f := strings.Fields(line)
		nums := make([]int, len(f))
		for j := range f {
			nums[j], _ = strconv.Atoi(f[j]) // a field that is no number renders differently below
		}
		if len(f) < 3 || stageLine(workflow.NodeID(nums[0]), nums[1:len(f)-1]) != line {
			return "", nil, fmt.Errorf("engine: checkpoint dir %s: MANIFEST line %d is damaged", c.dir, i+3)
		}
		staged[workflow.NodeID(nums[0])] = nums[1 : len(f)-1]
	}
	return strings.TrimSuffix(lines[1], "\n"), staged, nil
}

// prepareStaging readies the staging area for a run of g planned as stages
// and returns the member rows of each stage to restore, by last member ID.
// No manifest is a fresh start, another workflow's one once what it lists
// is removed; this workflow's is rewritten with the plan's stages it lists,
// dropping a torn last line. Any other is refused, and nothing removed.
func (c *CheckpointRunner) prepareStaging(g *workflow.Graph, stages [][]workflow.NodeID) (map[workflow.NodeID][]int, error) {
	sig := g.Signature()
	got, staged, err := c.readManifest()
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, err
	case got != sig:
		if err := c.clear(); err != nil {
			return nil, err
		}
		staged = nil
	}
	text := manifestMagic + sig + "\n"
	for _, ids := range stages {
		id := ids[len(ids)-1]
		if rows, ok := staged[id]; ok && len(rows) != len(ids) {
			return nil, fmt.Errorf("engine: checkpoint dir %s: MANIFEST counts %d members for stage %d, which has %d", c.dir, len(rows), id, len(ids))
		} else if ok {
			text += stageLine(id, rows)
		}
	}
	tmp := c.manifest + ".tmp"
	if err = os.MkdirAll(c.dir, 0o755); err == nil {
		err = os.WriteFile(tmp, []byte(text), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, c.manifest)
	}
	return staged, err
}

// Staged reports the stages the staging area holds, by last member ID.
func (c *CheckpointRunner) Staged() ([]workflow.NodeID, error) {
	_, staged, err := c.readManifest()
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	var ids []workflow.NodeID
	for id := range staged {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, err
}

// clear removes the listed stage files, the manifest, then an emptied directory.
func (c *CheckpointRunner) clear() error {
	ids, err := c.Staged()
	for _, id := range ids {
		if rerr := os.Remove(c.stagePath(id)); !errors.Is(rerr, fs.ErrNotExist) {
			err = errors.Join(err, rerr)
		}
	}
	if err == nil {
		err = os.Remove(c.manifest)
		os.Remove(c.dir) // fails, as it should, while anything else is in it
	}
	return err
}

// saveStage persists a stage: its output as a row file, then its manifest line.
func (c *CheckpointRunner) saveStage(id workflow.NodeID, schema data.Schema, rows data.Rows, members []int) error {
	if err := data.WriteRowFile(c.stagePath(id), schema, rows); err != nil {
		return fmt.Errorf("engine: staging %d: %w", id, err)
	}
	f, err := os.OpenFile(c.manifest, os.O_APPEND|os.O_WRONLY, 0)
	if err == nil {
		_, err = f.WriteString(stageLine(id, members))
		err = errors.Join(err, f.Close())
	}
	return err
}

// loadStage reads a stage's output back, refusing a file whose schema is
// not the one the run expects, as share's spill reader does.
func (c *CheckpointRunner) loadStage(id workflow.NodeID, schema data.Schema) (data.Rows, error) {
	header, rows, err := data.ReadRowFile(c.stagePath(id))
	if err == nil && !header.Equal(schema) {
		err = &data.RowFileError{Path: c.stagePath(id), Reason: fmt.Sprintf("schema %v is not the expected %v", header, schema)}
	}
	if err != nil {
		return nil, fmt.Errorf("engine: reading stage %d: %w", id, err)
	}
	return rows, nil
}
