package engine

import (
	"context"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// crashStaging runs the scenario with a once-failing PARTS2 so the run
// dies mid-workflow, leaving a partially populated staging area, and
// returns the staging dir. The damage functions below then corrupt it.
func crashStaging(t *testing.T, sc *templates.Scenario) string {
	t.Helper()
	bindings := sc.Bind()
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}
	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Run(context.Background(), sc.Graph); !errors.Is(err, errInjected) {
		t.Fatalf("setup run should fail with the injected error, got %v", err)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("setup crash staged nothing")
	}
	return dir
}

// TestCheckpointStagingDamage drives the resume path through every way a
// staging area can be wrong on disk. A manifest that is corrupt,
// truncated, or empty reads as a signature mismatch: the stale stages
// are discarded and the run recomputes everything — correctly. Orphan
// node files for IDs the workflow doesn't have are ignored. A staged CSV
// damaged after the manifest was accepted is the one unrecoverable case:
// the resume surfaces a read error rather than loading garbage.
func TestCheckpointStagingDamage(t *testing.T) {
	cases := []struct {
		name    string
		damage  func(t *testing.T, dir string)
		wantErr bool
	}{
		{
			name: "corrupt manifest",
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("garbage signature\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "truncated manifest",
			damage: func(t *testing.T, dir string) {
				b, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), b[:len(b)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "empty manifest",
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "orphan stage files",
			damage: func(t *testing.T, dir string) {
				// IDs far outside the graph: present on disk, never consulted.
				for _, name := range []string{"node-999.csv", "node-1000.csv"} {
					if err := os.WriteFile(filepath.Join(dir, name), []byte("A,B\n1,2\n"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "corrupt staged csv",
			damage: func(t *testing.T, dir string) {
				entries, err := filepath.Glob(filepath.Join(dir, "node-*.csv"))
				if err != nil || len(entries) == 0 {
					t.Fatalf("no staged files to corrupt: %v", err)
				}
				// An unbalanced quote makes the CSV unreadable past the header.
				if err := os.WriteFile(entries[0], []byte("A,B\n\"unclosed,1\n2,3\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: true,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sc := templates.Fig1Scenario(50, 150)
			dir := crashStaging(t, sc)
			c.damage(t, dir)
			cr, err := NewCheckpointRunner(New(sc.Bind()), dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cr.Run(context.Background(), sc.Graph)
			if c.wantErr {
				if err == nil {
					t.Fatal("resume over damaged stage should fail, succeeded instead")
				}
				return
			}
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Targets["DW.PARTS"].EqualMultiset(plain.Targets["DW.PARTS"]) {
				t.Error("resumed run differs from a clean run")
			}
			staged, err := cr.Staged()
			if err != nil {
				t.Fatal(err)
			}
			if len(staged) != 0 {
				t.Errorf("staging not cleared after success: %v", staged)
			}
		})
	}
}

// cancellingRecordset cancels the run's context from inside its own scan,
// which succeeds. The scan runs on the reader goroutine, one source ahead
// of the driver, and the reader keeps it for the driver until the driver
// returns: a driver already waiting for this source takes and stages it, a
// driver still busy notices the cancellation at its next stage boundary and
// never does. Every source handed over earlier is staged either way.
type cancellingRecordset struct {
	data.Recordset
	cancel context.CancelFunc
	scans  *int
}

func (c cancellingRecordset) Scan() (data.Rows, error) {
	*c.scans++
	c.cancel()
	return c.Recordset.Scan()
}

// Cancellation mid-run behaves exactly like the crash the runner exists
// to survive: the staging area stays intact and a later run resumes from
// it without repeating a staged scan. PARTS1 is handed over before PARTS2
// is scanned at all, so it is staged by the time the driver can notice.
func TestCheckpointResumeAfterCancellation(t *testing.T) {
	sc := templates.Fig1Scenario(50, 150)
	bindings := sc.Bind()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scans, scans1 := 0, 0
	bindings["PARTS1"] = countingRecordset{Recordset: bindings["PARTS1"], scans: &scans1}
	bindings["PARTS2"] = cancellingRecordset{Recordset: bindings["PARTS2"], cancel: cancel, scans: &scans}

	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cr.Run(ctx, sc.Graph)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run should return context.Canceled, got %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "cancelled before node") || !strings.Contains(msg, "rows") {
		t.Errorf("checkpoint cancellation error names neither node nor rows: %q", msg)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("cancellation left nothing staged")
	}
	wantScans := 2 // PARTS2: scanned again unless the driver had taken and staged it
	for _, id := range staged {
		if n := sc.Graph.Node(id); n.Kind == workflow.KindRecordset && n.RS.Name == "PARTS2" {
			wantScans = 1
		}
	}

	// Resume with a fresh context: completes, reuses the staged scans.
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("resume after cancellation failed: %v", err)
	}
	if scans1 != 1 || scans != wantScans {
		t.Errorf("PARTS1 scanned %d times, PARTS2 %d; want 1 and %d: a staged scan should have been reused", scans1, scans, wantScans)
	}
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targets["DW.PARTS"].EqualMultiset(plain.Targets["DW.PARTS"]) {
		t.Error("resumed run differs from a clean run")
	}
}

// TestLoadStageDamage covers what a staged file can look like on disk: no
// file means not staged, an empty or header-only file is a staged empty
// output, and a malformed line is an error whose position survives the
// wrapping.
func TestLoadStageDamage(t *testing.T) {
	cr, err := NewCheckpointRunner(New(nil), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cr.staged(1) {
		t.Error("absent stage = staged; want not staged")
	}
	for name, content := range map[string]string{"empty": "", "header only": "A,B\n"} {
		if err := os.WriteFile(cr.nodePath(1), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if rows, err := cr.loadStage(1); !cr.staged(1) || err != nil || len(rows) != 0 {
			t.Errorf("%s stage = %d rows, staged %v, %v; want none, staged, nil", name, len(rows), cr.staged(1), err)
		}
	}
	for name, content := range map[string]string{
		"ragged row":         "A,B\n1,2\n3\n",
		"bare quote":         "A,B\n1,2\nx\"y,3\n",
		"unterminated quote": "A,B\n1,2\n\"x,3\n",
	} {
		if err := os.WriteFile(cr.nodePath(1), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := cr.loadStage(1)
		var pe *csv.ParseError
		if !errors.As(err, &pe) || pe.StartLine != 3 {
			t.Errorf("%s: error %v does not carry a *csv.ParseError at line 3", name, err)
		}
	}
}
