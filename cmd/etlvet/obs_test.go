package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"etlopt/internal/obs"
)

// writeObsJournal records a small but fully populated flight-recorder
// journal — every event type the report has a section for, from a search
// run and an engine run — and returns its path.
func writeObsJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.NewJournalFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	search, engine := obs.NewRecorder(nil, j), obs.NewRecorder(nil, j)
	search.Emit(obs.RunEvent("start", "search/HS"))
	search.Emit(obs.PhaseEvent("expand", "start"))
	for i := 0; i < 4; i++ {
		search.Emit(obs.TransitionEvent("SWA", "attempt", 0))
	}
	batch := obs.TransitionEvent("SWA", "attempt", 0) // a group job's attempts, one record
	batch.Rows = 73
	search.Emit(batch)
	search.Emit(obs.TransitionEvent("SWA", "accept", 0))
	search.Emit(obs.TransitionEvent("SWA", "prune", 0))
	search.Emit(obs.TransitionEvent("SWA", "best", 41.5))
	search.Emit(obs.TransitionEvent("FAC", "attempt", 0))
	search.Emit(obs.CacheEvent("expand", true))
	search.Emit(obs.CacheEvent("expand", false))
	search.Emit(obs.CacheEvent("expand", false))
	search.Emit(obs.PhaseEvent("expand", "end"))
	search.Emit(obs.RunEvent("end", "search/HS"))
	engine.Emit(obs.RunEvent("start", "engine/parallel"))
	engine.Emit(obs.NodeEvent("extract", 100, 0.25))
	engine.Emit(obs.NodeEvent("extract", 100, 0.25))
	engine.Emit(obs.NodeEvent("filter", 40, 0.5))
	engine.Emit(obs.NodeEvent("load", 40, 0.01))
	engine.Emit(obs.BatchEvent("filter", 1, 20))
	engine.Emit(obs.BatchEvent("filter", 0, 20))
	engine.Emit(obs.ExchangeEvent("join", 37))
	engine.Emit(obs.CheckpointEvent("filter", "staged", 40))
	engine.Emit(obs.SharedCacheEvent("lookup", 0))
	engine.Emit(obs.SharedCacheEvent("miss", 0))
	engine.Emit(obs.SharedCacheEvent("admit", 640))
	engine.Emit(obs.SharedCacheEvent("lookup", 0))
	engine.Emit(obs.SharedCacheEvent("hit", 640))
	engine.Emit(obs.SharedCacheEvent("spill", 640))
	engine.Emit(obs.SharedCacheEvent("evict", 640))
	engine.Emit(obs.FaultEvent("filter", 1, "emit", "transient"))
	engine.Emit(obs.FaultEvent("join", 0, "exchange", "transient"))
	engine.Emit(obs.RetryEvent("filter", 2, 0.002, "fault: injected transient fault"))
	engine.Emit(obs.ResumeEvent("extract", 100))
	engine.Emit(obs.DriftEvent("filter", 0.4, 0.5))
	engine.Emit(obs.DriftEvent("load", 1.0, 1.0))
	engine.Emit(obs.RunEvent("end", "engine/parallel"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestObsReportSections: a well-formed journal renders every report
// section, audits clean, and exits 0.
func TestObsReportSections(t *testing.T) {
	path := writeObsJournal(t)
	out, errb, code := runCLI(t, "obs", path)
	if code != 0 {
		t.Fatalf("clean journal should exit 0, got %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	for _, want := range []string{
		"== " + path + " ==",
		"run start search/HS",
		"run end   engine/parallel",
		"phase timeline:",
		"expand",
		"transition funnel:",
		"SWA",
		"77", // 4 single attempts + a batch of 73
		"cache hit rates:",
		"33.3%",
		"shared cache activity:",
		"640 byte(s) of recomputation saved",
		"slow node(s) of 3",
		"filter",
		"selectivity drift (observed vs modeled)",
		"engine activity:",
		"2 partition batch(es)",
		"37 row(s) through repartition exchanges",
		"1 checkpoint node(s) staged",
		"fault & recovery activity:",
		"1 fault(s) injected at emit (transient)",
		"1 fault(s) injected at exchange (transient)",
		"1 retry attempt(s), 0.0020s total backoff",
		"1 node(s) resumed from checkpoint, 100 row(s) restored",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "no findings") {
		t.Errorf("clean journal should audit clean:\n%s", out)
	}
}

// TestObsTopK: -top trims both the slow-node and the drift tables.
func TestObsTopK(t *testing.T) {
	path := writeObsJournal(t)
	out, _, code := runCLI(t, "obs", "-top", "1", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "top 1 slow node(s) of 3") {
		t.Errorf("-top 1 did not trim the node table:\n%s", out)
	}
	if !strings.Contains(out, "top 1 of 2") {
		t.Errorf("-top 1 did not trim the drift table:\n%s", out)
	}
	// The slowest node leads; the cheapest must be cut.
	if !strings.Contains(out, "filter") || strings.Contains(out, "load  ") {
		t.Errorf("wrong node survived -top 1:\n%s", out)
	}
}

// TestObsTruncatedJournal: a journal without its summary trailer (a
// crashed or killed recording run) is a warning and exits 1.
func TestObsTruncatedJournal(t *testing.T) {
	full := writeObsJournal(t)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	path := filepath.Join(t.TempDir(), "truncated.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)-1], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runCLI(t, "obs", "-format", "json", path)
	if code != 1 {
		t.Fatalf("truncated journal should exit 1, got %d\n%s", code, out)
	}
	fs := decodeFindings(t, out)
	found := false
	for _, f := range fs {
		if f.Check == "obs" && strings.Contains(f.Message, "no summary trailer") {
			found = true
			if f.File != path {
				t.Errorf("finding not anchored to the journal: %q", f.File)
			}
		}
	}
	if !found {
		t.Errorf("want a no-summary-trailer warning, got %v", fs)
	}
}

// TestObsAuditFindings: handcrafted malformed journals surface each
// integrity check, and drop accounting is advice, not a warning.
func TestObsAuditFindings(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name, body, want string
		exit             int
	}{
		{"empty", "", "journal is empty", 1},
		{"summary-not-last",
			`{"seq":1,"t":"summary","off":0.2,"events":1}` + "\n" +
				`{"seq":2,"t":"run","off":0.1,"action":"start"}` + "\n",
			"summary event is not the last record", 1},
		{"count-mismatch",
			`{"seq":1,"t":"run","off":0.1,"action":"start"}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":7}` + "\n",
			"summary claims 7 events, file holds 1", 1},
		{"write-errors",
			`{"seq":1,"t":"run","off":0.1,"action":"start"}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":1,"errors":3}` + "\n",
			"3 event(s) lost to write failures", 1},
		{"duplicate-seq",
			`{"seq":5,"t":"run","off":0.1,"action":"start"}` + "\n" +
				`{"seq":5,"t":"run","off":0.2,"action":"end"}` + "\n" +
				`{"seq":6,"t":"summary","off":0.3,"events":2}` + "\n",
			"duplicate event sequence number 5", 1},
		{"negative-offset",
			`{"seq":1,"t":"run","off":-0.5,"action":"start"}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":1}` + "\n",
			"negative time offset", 1},
		{"negative-node-sec",
			`{"seq":1,"t":"node","off":0.1,"node":"x","rows":5,"sec":-1}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":1}` + "\n",
			"node x has negative wall time", 1},
		{"fault-missing-site",
			`{"seq":1,"t":"fault","off":0.1,"node":"x","part":0}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":1}` + "\n",
			"fault event seq 1 lacks site/kind attribution", 1},
		{"shared-hits-exceed-lookups",
			`{"seq":1,"t":"cache","off":0.1,"op":"shared","action":"hit","rows":64}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":1}` + "\n",
			"shared cache journaled 1 hits but only 0 lookups", 1},
		{"shared-evict-exceeds-admit",
			`{"seq":1,"t":"cache","off":0.1,"op":"shared","action":"lookup"}` + "\n" +
				`{"seq":2,"t":"cache","off":0.2,"op":"shared","action":"evict","rows":100}` + "\n" +
				`{"seq":3,"t":"summary","off":0.3,"events":2}` + "\n",
			"shared cache eviction freed 100 bytes but admission only recorded 0", 1},
		{"retry-bad-attempt",
			`{"seq":1,"t":"retry","off":0.1,"node":"x","attempt":1}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":1}` + "\n",
			"retry event seq 1 claims attempt 1; retries start at 2", 1},
		// Drops are legal — the journal is lossy by design — so a
		// drop-only journal is advice and still exits 0.
		{"dropped-is-advice",
			`{"seq":1,"t":"run","off":0.1,"action":"start"}` + "\n" +
				`{"seq":2,"t":"summary","off":0.2,"events":1,"dropped":9}` + "\n",
			"dropped under buffer pressure", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := write(tc.name+".jsonl", tc.body)
			out, errb, code := runCLI(t, "obs", path)
			if code != tc.exit {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.exit, out, errb)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("findings missing %q:\nstdout: %s", tc.want, out)
			}
		})
	}
}

// TestObsUnreadableJournal: a missing file is an operational error
// (exit 2), not a finding.
func TestObsUnreadableJournal(t *testing.T) {
	_, errb, code := runCLI(t, "obs", filepath.Join(t.TempDir(), "nope.jsonl"))
	if code != 2 {
		t.Fatalf("missing journal should exit 2, got %d\nstderr: %s", code, errb)
	}
}

// TestBadRatio pins the non-finite guard used by the drift audit.
func TestBadRatio(t *testing.T) {
	if badRatio(0.5) || badRatio(0) || badRatio(-3) {
		t.Error("finite values flagged as bad")
	}
	nan := func() float64 { z := 0.0; return z / z }()
	inf := func() float64 { z := 0.0; return 1 / z }()
	if !badRatio(nan) || !badRatio(inf) || !badRatio(-inf) {
		t.Error("non-finite values not flagged")
	}
}

// TestObsTraceFormat: -format trace writes one journal's spans to stdout
// as trace-event JSON, each node span under the run that executed it;
// findings go to stderr with the usual exit codes; it takes exactly one
// journal, and no other subcommand takes it.
func TestObsTraceFormat(t *testing.T) {
	path := writeObsJournal(t)
	out, errb, code := runCLI(t, "obs", "-format", "trace", path)
	if code != 0 || !strings.Contains(errb, "no findings") {
		t.Fatalf("clean journal: exit %d, stderr %q; want 0 and no findings", code, errb)
	}
	var tf struct {
		TraceEvents []struct {
			Name, Ph string
			Args     map[string]string
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &tf); err != nil {
		t.Fatalf("stdout is not trace-event JSON: %v\n%s", err, out)
	}
	parents := map[string]string{}
	nodes := 0
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		parents[e.Name] = e.Args["parent"]
		if strings.HasPrefix(e.Name, "node/") {
			nodes++
		}
	}
	want := map[string]string{
		"search/HS": "", "expand": "search/HS", "engine/parallel": "",
		"node/extract": "engine/parallel", "node/filter": "engine/parallel", "node/load": "engine/parallel",
	}
	if !reflect.DeepEqual(parents, want) || nodes != 4 {
		t.Errorf("span -> parent %v with %d node spans; want %v with 4", parents, nodes, want)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.jsonl")
	if err := os.WriteFile(truncated, data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1], 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code = runCLI(t, "obs", "-format", "trace", truncated)
	if code != 1 || !strings.Contains(errb, "no summary trailer") || !json.Valid([]byte(out)) {
		t.Errorf("journal without its trailer: exit %d, stderr %q, stdout valid JSON %v; want 1, the finding, true", code, errb, json.Valid([]byte(out)))
	}

	for _, args := range [][]string{
		{"obs", "-format", "trace", path, path},
		{"obs", "-format", "trace"},
		{"workflow", "-format", "trace", writeFig1(t)},
	} {
		if out, errb, code := runCLI(t, args...); code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 and nothing on stdout", args, code, out, errb)
		}
	}
}
