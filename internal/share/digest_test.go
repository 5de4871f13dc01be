package share

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// countingRecordset counts what is asked of a bound recordset. It embeds the
// interface, as every wrapper in the repository does.
type countingRecordset struct {
	data.Recordset
	scans, digests atomic.Int32
}

func (c *countingRecordset) Scan() (data.Rows, error) {
	c.scans.Add(1)
	return c.Recordset.Scan()
}

func (c *countingRecordset) Digest() (uint64, error) {
	c.digests.Add(1)
	return c.Recordset.Digest()
}

// counted puts every binding of every member behind a counting double.
func counted(wfs []Workflow) []*countingRecordset {
	var all []*countingRecordset
	for _, wf := range wfs {
		for name, rs := range wf.Bindings {
			c := &countingRecordset{Recordset: rs}
			wf.Bindings[name] = c
			all = append(all, c)
		}
	}
	return all
}

// reads counts, per recordset name, how often one engine run of g scans it:
// once per source node, and once per lookup table and use (a surrogate-key
// table is keyed on its first attribute, a key check's on all of them).
func reads(g *workflow.Graph) map[string]int {
	n := make(map[string]int)
	for _, id := range g.Sources() {
		n[g.Node(id).RS.Name]++
	}
	type use struct {
		name string
		sk   bool
	}
	seen := make(map[use]bool)
	var walk func(a *workflow.Activity)
	walk = func(a *workflow.Activity) {
		if u := (use{a.Sem.Lookup, a.Sem.Op == workflow.OpSurrogateKey}); u.name != "" && !seen[u] {
			seen[u] = true
			n[u.name]++
		}
		for _, c := range a.Sem.Components {
			walk(c)
		}
	}
	for _, id := range g.Activities() {
		walk(g.Node(id).Act)
	}
	return n
}

// TestSuitePlansWithoutScanning: a plan is made from digests alone, one per
// member and recordset the member reads, and a whole suite run scans each
// recordset as often as the stages and residual runs it planned read it —
// no more. (A planner that scans to fingerprint reads every source and
// lookup once more per member.)
func TestSuitePlansWithoutScanning(t *testing.T) {
	gen, err := generator.SharedSuite(generator.Medium, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	suites := []struct {
		name string
		make func() []Workflow
	}{
		{"code", func() []Workflow { return codeSuite(t) }},
		{"generated", func() []Workflow { return suiteWorkflows(gen) }},
	}
	ctx := context.Background()
	for _, s := range suites {
		for _, workers := range []int{1, 4} {
			for _, spill := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/spill=%v", s.name, workers, spill), func(t *testing.T) {
					wfs := s.make()
					doubles := counted(wfs)
					p, err := newPlan(ctx, wfs, workers)
					if err != nil {
						t.Fatal(err)
					}
					if len(p.stages) == 0 {
						t.Fatal("the suite shares nothing")
					}
					wantDigests := make(map[data.Recordset]int32)
					for _, wf := range wfs {
						for name := range reads(wf.Graph) {
							wantDigests[wf.Bindings[name]] = 1
						}
					}
					wantScans := make(map[data.Recordset]int32)
					planned := func(g *workflow.Graph, bindings map[string]data.Recordset) {
						for name, n := range reads(g) {
							if rs, ok := bindings[name]; ok { // the others are injected intermediates
								wantScans[rs] += int32(n)
							}
						}
					}
					for _, st := range p.stages {
						planned(st.graph, st.bindings)
					}
					for _, pw := range p.workflows {
						planned(pw.residual, pw.wf.Bindings)
					}
					for _, c := range doubles {
						if c.scans.Load() != 0 || c.digests.Load() != wantDigests[c] {
							t.Errorf("planning: %s scanned %d times and digested %d times, want 0 and %d",
								c.Name(), c.scans.Load(), c.digests.Load(), wantDigests[c])
						}
						c.digests.Store(0)
					}

					opts := Options{Workers: workers, CacheBytes: -1}
					if spill {
						opts.CacheBytes, opts.SpillDir = 0, t.TempDir()
					}
					res, err := RunSuite(ctx, wfs, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, wr := range res.Workflows {
						if wr.Err != nil {
							t.Fatalf("%s: %v", wr.Name, wr.Err)
						}
					}
					if st := res.Stats; st.StageRuns != int64(st.Stages) {
						t.Fatalf("%d stage runs for %d stages: the counts below assume one each", st.StageRuns, st.Stages)
					}
					for _, c := range doubles {
						if c.scans.Load() != wantScans[c] || c.digests.Load() != wantDigests[c] {
							t.Errorf("run: %s scanned %d times and digested %d times, want %d and %d",
								c.Name(), c.scans.Load(), c.digests.Load(), wantScans[c], wantDigests[c])
						}
					}
				})
			}
		}
	}
}

// TestCancelledBeforePlanningOpensNothing: a suite whose context is already
// done is not planned — no recordset is asked for its digest, let alone read.
func TestCancelledBeforePlanningOpensNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wfs := codeSuite(t)
	doubles := counted(wfs)
	res, err := RunSuite(ctx, wfs, Options{Workers: 4, CacheBytes: -1})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunSuite under a cancelled context = %v, %v; want no result and context.Canceled", res, err)
	}
	for _, c := range doubles {
		if c.scans.Load() != 0 || c.digests.Load() != 0 {
			t.Errorf("%s was scanned %d times and digested %d times", c.Name(), c.scans.Load(), c.digests.Load())
		}
	}
}

// fileSuite binds every member to record files in a directory of its own,
// <recordset>.csv under dirs[i]: its sources and lookups written out, its
// targets created empty.
func fileSuite(t *testing.T, scs []*templates.Scenario) (wfs []Workflow, dirs []string) {
	t.Helper()
	wfs, dirs = make([]Workflow, len(scs)), make([]string, len(scs))
	for i, sc := range scs {
		dir := t.TempDir()
		dirs[i] = dir
		bind := func(name string, schema data.Schema, rows data.Rows) data.Recordset {
			rs, err := data.NewFileRecordset(name, schema, filepath.Join(dir, name+".csv"))
			if err == nil {
				err = rs.Load(rows)
			}
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}
		wfs[i] = Workflow{Name: fmt.Sprintf("wf%d", i), Graph: sc.Graph, Bindings: make(map[string]data.Recordset)}
		for name, rows := range sc.Sources {
			wfs[i].Bindings[name] = bind(name, sc.Schemas[name], rows)
		}
		for name, rows := range sc.Lookups {
			wfs[i].Bindings[name] = bind(name, sc.Schemas[name], rows)
		}
		for _, id := range sc.Graph.Targets() {
			rs := sc.Graph.Node(id).RS
			wfs[i].Bindings[rs.Name] = bind(rs.Name, rs.Schema, nil)
		}
	}
	return wfs, dirs
}

// TestDamagedSourceFailsItsReaders: a record file whose body cannot be parsed
// still digests, so the suite is planned and run; the members bound to the
// damaged bytes — here two of three, damaged alike and so still sharing —
// fail where the file is read, with encoding/csv's error, and load nothing.
// The third member's copy is intact: it stops sharing that source with them
// and loads what it loads alone.
func TestDamagedSourceFailsItsReaders(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 4242)
	if err != nil {
		t.Fatal(err)
	}
	for _, damage := range []struct {
		name, tail string
		cause      error
	}{
		{"ragged line", "1\n", csv.ErrFieldCount},
		{"unterminated quote", "\"1,2\n", csv.ErrQuote},
	} {
		t.Run(damage.name, func(t *testing.T) {
			wfs, dirs := fileSuite(t, scs)
			source := scs[0].Graph.Node(scs[0].Graph.Sources()[0]).RS.Name
			for _, dir := range dirs[:2] {
				fh, err := os.OpenFile(filepath.Join(dir, source+".csv"), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fh.WriteString(damage.tail); err != nil {
					t.Fatal(err)
				}
				fh.Close()
			}
			spill := t.TempDir()
			res, err := RunSuite(context.Background(), wfs, Options{Workers: 2, CacheBytes: 0, SpillDir: spill})
			if err != nil {
				t.Fatalf("RunSuite: %v; the damage is the reading node's to report", err)
			}
			for i, wr := range res.Workflows[:2] {
				var pe *csv.ParseError
				if !errors.As(wr.Err, &pe) || pe.Err != damage.cause || !strings.Contains(wr.Err.Error(), source) {
					t.Errorf("%s: %v; want a *csv.ParseError of %v naming %s", wr.Name, wr.Err, damage.cause, source)
				}
				for _, id := range wfs[i].Graph.Targets() {
					name := wfs[i].Graph.Node(id).RS.Name
					if n, err := wfs[i].Bindings[name].Count(); n != 0 || err != nil {
						t.Errorf("%s: target %s holds %d rows (%v) after a failed run", wr.Name, name, n, err)
					}
				}
			}
			if res.Workflows[0].Err != nil && res.Workflows[1].Err != nil &&
				res.Workflows[0].Err.Error() != res.Workflows[1].Err.Error() {
				t.Errorf("members sharing the damaged stage failed differently:\n  %v\n  %v", res.Workflows[0].Err, res.Workflows[1].Err)
			}
			if res.Workflows[2].Err != nil {
				t.Fatalf("%s reads an intact copy and failed: %v", res.Workflows[2].Name, res.Workflows[2].Err)
			}
			solo, soloDirs := fileSuite(t, scs[2:])
			want, err := engine.New(solo[0].Bindings).Run(context.Background(), solo[0].Graph)
			if err != nil {
				t.Fatal(err)
			}
			for name, rows := range want.Targets {
				if got := res.Workflows[2].Result.Targets[name]; got.Digest() != rows.Digest() {
					t.Errorf("target %s: %d rows in the suite, %d alone, or other values", name, len(got), len(rows))
				}
				got, _ := os.ReadFile(filepath.Join(dirs[2], name+".csv"))
				alone, _ := os.ReadFile(filepath.Join(soloDirs[0], name+".csv"))
				if len(alone) == 0 || string(got) != string(alone) {
					t.Errorf("target file %s: %d bytes in the suite, %d alone, or other bytes", name, len(got), len(alone))
				}
			}
			if res.Stats.Cache.Spills == 0 {
				t.Error("nothing was spilled: the run was to leave a spill directory to clean")
			}
			if left, _ := os.ReadDir(spill); len(left) != 0 {
				t.Errorf("%d entries left in the spill directory, first %s", len(left), left[0].Name())
			}
		})
	}
}

// TestRewrittenHeaderIsRefusedAtPlanning: a source whose header row is no
// longer its schema is not content any digest can name; planning refuses it
// in Scan's words, recordset and path named.
func TestRewrittenHeaderIsRefusedAtPlanning(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 2, 4242)
	if err != nil {
		t.Fatal(err)
	}
	wfs, dirs := fileSuite(t, scs)
	source := scs[1].Graph.Node(scs[1].Graph.Sources()[0]).RS.Name
	path := filepath.Join(dirs[1], source+".csv")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("X_"), text...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, scanErr := wfs[1].Bindings[source].Scan()
	res, err := RunSuite(context.Background(), wfs, Options{Workers: 2, CacheBytes: -1})
	if err == nil || res != nil || scanErr == nil || !strings.Contains(err.Error(), scanErr.Error()) {
		t.Fatalf("RunSuite = %v, %v; want no result and Scan's refusal: %v", res, err, scanErr)
	}
	for _, part := range []string{"workflow wf1", "recordset " + source, path, "does not match schema"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
}
