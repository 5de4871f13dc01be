package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// tiny shrinks a workload's input size so a pass takes milliseconds; the
// shape of the pass is unchanged.
func tiny(w *workload) *workload {
	c := *w
	c.rows = 300
	c.kernelRows = 1000
	if c.pass.maxStates > 40 {
		c.pass.maxStates = 40
	}
	return &c
}

// TestWorkloadsTiny runs every workload end to end at a tiny size: set-up,
// then a traced run (untraced and traced passes alternating, then the
// per-layer measurements) with the output check on, and checks that what
// the run prints is exactly what metrics.go declares.
func TestWorkloadsTiny(t *testing.T) {
	for _, full := range workloads() {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			inDir := filepath.Join(t.TempDir(), "in")
			if err := setUp(w, defaultSeed, inDir); err != nil {
				t.Fatal(err)
			}
			res, err := runPhase(w, inDir, 0, true, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			ms := newMetricSet(perLayer)
			ms.vals = res.Metrics
			checkDeclared(t, perLayer, ms.complete())
			for _, layer := range passLayers {
				if res.Metrics["pass."+layer+"_s"].Absent {
					t.Errorf("pass.%s_s is absent", layer)
				}
			}
			if w.pass.suite && res.Metrics["share.spill_loads"].Value == 0 {
				t.Error("suite-spill read nothing back from spill files: the cache budget no longer forces it")
			}
		})
	}
}

// checkDeclared fails unless got holds exactly the declared metrics, each
// finite and in its declared unit.
func checkDeclared(t *testing.T, decls []metricDecl, got map[string]value) {
	t.Helper()
	if len(got) != len(decls) {
		t.Errorf("%d metrics printed, %d declared", len(got), len(decls))
	}
	for _, d := range decls {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", d.Name)
		} else if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %v %q, want a finite value in %q", d.Name, v.Value, v.Unit, d.Unit)
		}
	}
}

func TestEndToEndMetricsAreTheDeclaredOnes(t *testing.T) {
	pass := &passResult{InitialCost: 200, BestCost: 150}
	got := endToEndMetrics([]sample{{window: 3, cal: 0.5, alloc: 10, res: pass}, {window: 1, cal: 0.5, alloc: 20, res: pass}, {window: 2, cal: 0.5, alloc: 30, res: pass}})
	got["setup_s"] = value{Value: 1, Unit: "s"} // the parent process adds it
	checkDeclared(t, endToEnd, got)
	for name, want := range map[string]float64{"window_rel": 4, "alloc_mb": 20, "plan_cost_ratio": 0.75} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
	if got["peak_rss_mb"].Value <= 0 {
		t.Error("peak_rss_mb is not positive")
	}
}

// TestSetUpDeterministic checks that the same seed writes the same bytes.
func TestSetUpDeterministic(t *testing.T) {
	for _, full := range workloads() {
		w := tiny(full)
		a, b := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
		if err := setUp(w, 7, a); err != nil {
			t.Fatal(err)
		}
		if err := setUp(w, 7, b); err != nil {
			t.Fatal(err)
		}
		files := 0
		err := filepath.WalkDir(a, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(a, path)
			want, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			got, err := os.ReadFile(filepath.Join(b, rel))
			if err != nil {
				return err
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: %s differs between two set-ups of seed 7", w.name, rel)
			}
			files++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if files < 3 {
			t.Errorf("%s: set-up wrote only %d files", w.name, files)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to metrics.go and to the limits
// of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is not what `benchmark -describe` prints; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if u != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range doc.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it moves on which workload", d.Name)
		}
	}
}

// TestReadmeBounds holds the bound column of README.md's end-to-end table
// to metrics.go.
func TestReadmeBounds(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		row := regexp.MustCompile("(?m)^\\| `" + d.Name + "` \\|.*\\| ([0-9.]+) % \\|$").FindSubmatch(readme)
		if row == nil {
			t.Errorf("README.md has no end-to-end row for %s", d.Name)
		} else if got, _ := strconv.ParseFloat(string(row[1]), 64); math.Abs(got-100*d.Bound) > 1e-9 {
			t.Errorf("README.md gives %s a bound of %v %%, metrics.go %v %%", d.Name, got, 100*d.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	window := metricDecl{Name: "window_rel", Better: "lower", Bound: 0.10}
	tight := summary{Median: 1, Q1: 0.99, Q3: 1.01}
	loose := summary{Median: 1, Q1: 0.9, Q3: 1.1}
	for _, c := range []struct {
		old  summary
		new  float64
		want string
	}{
		{tight, 1.15, "regressed"},
		{tight, 1.05, "unchanged"},
		{tight, 0.95, "improved"},
		{loose, 1.15, "unresolved"}, // worse than the bound but inside the parent's own spread
		{loose, 1.25, "regressed"},
		{loose, 0.95, "unresolved"},
		{loose, 0.70, "improved"},
	} {
		if _, _, got := verdict(window, c.old, summary{Median: c.new}); got != c.want {
			t.Errorf("old spread %.0f%%, new %.2f: %s, want %s", 100*(c.old.Q3-c.old.Q1), c.new, got, c.want)
		}
	}
	rate := metricDecl{Name: "x", Better: "higher", Bound: 0.10}
	if _, _, got := verdict(rate, tight, summary{Median: 0.8}); got != "regressed" {
		t.Errorf("higher-is-better metric that fell 20%%: %s, want regressed", got)
	}
}

func TestComparable(t *testing.T) {
	old := &setReport{Host: host{NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "aaa"}, Seed: 1, Seconds: 20}
	new := *old
	new.Host.Commit = "bbb"
	if err := comparable(old, &new); err != nil {
		t.Errorf("two commits on one host and toolchain: %v", err)
	}
	new.Host.Go = "go1.25.0"
	if comparable(old, &new) == nil {
		t.Error("sets from two Go versions were accepted for comparison")
	}
}
