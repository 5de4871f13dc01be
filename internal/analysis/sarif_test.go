package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// sarifFixture is a small deterministic finding set covering every
// shape the writer handles: a warning with a full location, advice with
// file but no line, a workflow check with no artifact, and a check the
// pass table does not know.
func sarifFixture() []Finding {
	return []Finding{
		{Severity: Warning, Check: "map-iteration", Node: -1,
			Where: "cmd/etlrun/main.go:305:2", File: "cmd/etlrun/main.go", Line: 305, Col: 2,
			Message: "assignment to target inside map iteration",
			Fix:     "iterate sorted keys"},
		{Severity: Advice, Check: "dead-filter", Node: 4, File: "examples/workflows/small-01.etl",
			Message: "filter a16 is statically always true"},
		{Severity: Warning, Check: "unsatisfiable-guard", Node: 7,
			Message: "guard is statically always false"},
		{Severity: Warning, Check: "schema-derivation", Node: -1,
			Message: "input schemata cannot be derived"},
	}
}

// TestWriteSARIFGolden pins the exact SARIF bytes for the fixture. Run
// `go test ./internal/analysis -run SARIFGolden -update` after a
// deliberate pass-table or writer change.
func TestWriteSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sarifFixture()); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/golden.sarif"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output drifted from %s (rerun with -update after a deliberate change):\n%s", golden, buf.String())
	}
}

// TestWriteSARIFStructure checks the schema-level contract: version,
// $schema, the rule table sourced from the pass table, level
// mapping, and locations.
func TestWriteSARIFStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sarifFixture()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name    string `json:"name"`
					Version string `json:"version"`
					Rules   []struct {
						ID               string `json:"id"`
						ShortDescription *struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region *struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version %q schema %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "etlvet" || run.Tool.Driver.Version == "" {
		t.Errorf("driver %q %q", run.Tool.Driver.Name, run.Tool.Driver.Version)
	}
	// Every pass appears as a rule, with its doc.
	ruleIdx := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		ruleIdx[r.ID] = i
	}
	for _, p := range AllPasses() {
		i, ok := ruleIdx[p.Name]
		if !ok {
			t.Errorf("pass %q missing from rule table", p.Name)
			continue
		}
		r := run.Tool.Driver.Rules[i]
		if r.ShortDescription == nil || r.ShortDescription.Text != p.Doc {
			t.Errorf("rule %q doc not taken from the pass table", p.Name)
		}
	}
	// The check outside the table got a synthetic rule.
	if _, ok := ruleIdx["schema-derivation"]; !ok {
		t.Error("schema-derivation missing from rule table")
	}
	if len(run.Results) != 4 {
		t.Fatalf("want 4 results, got %d", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "map-iteration" || first.Level != "warning" {
		t.Errorf("result 0: %+v", first)
	}
	if ruleIdx[first.RuleID] != first.RuleIndex {
		t.Errorf("ruleIndex %d does not match rule table position %d", first.RuleIndex, ruleIdx[first.RuleID])
	}
	if !strings.Contains(first.Message.Text, "(fix: iterate sorted keys)") {
		t.Errorf("fix not folded into message: %q", first.Message.Text)
	}
	if len(first.Locations) != 1 ||
		first.Locations[0].PhysicalLocation.ArtifactLocation.URI != "cmd/etlrun/main.go" ||
		first.Locations[0].PhysicalLocation.Region == nil ||
		first.Locations[0].PhysicalLocation.Region.StartLine != 305 ||
		first.Locations[0].PhysicalLocation.Region.StartColumn != 2 {
		t.Errorf("result 0 location: %+v", first.Locations)
	}
	second := run.Results[1]
	if second.Level != "note" {
		t.Errorf("advice should map to note, got %q", second.Level)
	}
	if len(second.Locations) != 1 || second.Locations[0].PhysicalLocation.Region != nil {
		t.Errorf("file-only finding should have a location without a region: %+v", second.Locations)
	}
	if len(run.Results[2].Locations) != 0 {
		t.Errorf("artifact-less finding should have no locations: %+v", run.Results[2].Locations)
	}
}

// TestBaselineRoundTrip: write → read → filter is the identity gate.
func TestBaselineRoundTrip(t *testing.T) {
	fs := sarifFixture()
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, fs); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(fs) {
		t.Fatalf("baseline Len %d, want %d", b.Len(), len(fs))
	}
	// The exact same findings are fully absorbed.
	if left := b.Filter(fs); len(left) != 0 {
		t.Errorf("round-trip should absorb everything, got %v", left)
	}
	// Moving an acknowledged finding within its file must not resurrect
	// it: line/col are not part of the key.
	moved := append([]Finding(nil), fs...)
	moved[0].Line, moved[0].Col, moved[0].Where = 999, 1, "cmd/etlrun/main.go:999:1"
	if left := b.Filter(moved); len(left) != 0 {
		t.Errorf("line move resurrected a baselined finding: %v", left)
	}
	// A genuinely new finding survives the filter.
	novel := Finding{Severity: Warning, Check: "map-iteration", Node: -1,
		File: "internal/core/core.go", Line: 10,
		Message: "assignment to target inside map iteration"}
	if left := b.Filter(append(moved, novel)); len(left) != 1 || left[0].File != novel.File {
		t.Errorf("new finding should survive, got %v", left)
	}
	// A second instance of an already-baselined key also survives.
	dup := append(append([]Finding(nil), fs...), fs[0])
	if left := b.Filter(dup); len(left) != 1 {
		t.Errorf("count overflow should survive, got %v", left)
	}
}

// TestBaselineDeterministic: regenerating a baseline from permuted
// findings yields identical bytes.
func TestBaselineDeterministic(t *testing.T) {
	fs := sarifFixture()
	rev := make([]Finding, len(fs))
	for i, f := range fs {
		rev[len(fs)-1-i] = f
	}
	var a, b bytes.Buffer
	if err := WriteBaseline(&a, fs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBaseline(&b, rev); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("baseline not order-independent:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestReadBaselineErrors: malformed records are rejected with the line
// number.
func TestReadBaselineErrors(t *testing.T) {
	for _, bad := range []string{
		"no-tabs-here\n",
		"x\tmap-iteration\tf.go\tmsg\n",
		"0\tmap-iteration\tf.go\tmsg\n",
		"-2\tmap-iteration\tf.go\tmsg\n",
	} {
		if _, err := ReadBaseline(strings.NewReader(bad)); err == nil {
			t.Errorf("want error for %q", bad)
		}
	}
	// Comments and blanks are fine.
	b, err := ReadBaseline(strings.NewReader("# header\n\n1\tc\tf\tm\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}
