package analysis

// SARIF 2.1.0 output. The static-analysis interchange format lets CI
// systems (GitHub code scanning, among others) ingest etlvet findings
// without parsing our text output. Only the slice of the spec we need
// is modelled: one run, the driver's rule table built from the pass
// table, and one result per finding with a physical location when
// the finding carries one.

import (
	"encoding/json"
	"io"
	"sort"
)

const (
	sarifSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion   = "2.1.0"
	// ToolName and ToolVersion identify the analyzer in machine-readable
	// reports.
	ToolName    = "etlvet"
	ToolVersion = "2.0.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name    string      `json:"name"`
	Version string      `json:"version"`
	Rules   []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string        `json:"id"`
	ShortDescription *sarifMessage `json:"shortDescription,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           *sarifRegion  `json:"region,omitempty"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// sarifLevel maps our two-grade severity onto SARIF's levels: warnings
// stay warnings, advice becomes "note" — the same CI contract as the
// exit codes (notes never fail a scan).
func sarifLevel(s Severity) string {
	if s == Warning {
		return "warning"
	}
	return "note"
}

// sarifRules builds the driver rule table: every pass, in table order,
// plus synthetic entries for any finding checks the table does not know
// (the CLI's own "obs" audit), appended in name order so
// output stays deterministic.
func sarifRules(fs []Finding) ([]sarifRule, map[string]int) {
	var rules []sarifRule
	index := map[string]int{}
	for _, p := range passes {
		index[p.Name] = len(rules)
		rules = append(rules, sarifRule{
			ID:               p.Name,
			ShortDescription: &sarifMessage{Text: p.Doc},
		})
	}
	var extra []string
	seen := map[string]bool{}
	for _, f := range fs {
		if _, ok := index[f.Check]; !ok && !seen[f.Check] {
			seen[f.Check] = true
			extra = append(extra, f.Check)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		index[name] = len(rules)
		rules = append(rules, sarifRule{ID: name})
	}
	return rules, index
}

// WriteSARIF renders the findings as a SARIF 2.1.0 log: one run whose
// driver rule table is the full pass table and whose results are the
// findings in their given order. Findings with a File carry a physical
// location (module-relative URI, 1-based region when the line is
// known). The output is indented JSON with a trailing newline, byte-
// stable for identical input — goldens and CI artifacts diff cleanly.
func WriteSARIF(w io.Writer, fs []Finding) error {
	rules, index := sarifRules(fs)
	results := make([]sarifResult, 0, len(fs))
	for _, f := range fs {
		r := sarifResult{
			RuleID:    f.Check,
			RuleIndex: index[f.Check],
			Level:     sarifLevel(f.Severity),
			Message:   sarifMessage{Text: f.Message},
		}
		if f.Fix != "" {
			r.Message.Text += " (fix: " + f.Fix + ")"
		}
		if f.File != "" {
			phys := sarifPhysical{ArtifactLocation: sarifArtifact{URI: f.File}}
			if f.Line > 0 {
				phys.Region = &sarifRegion{StartLine: f.Line, StartColumn: f.Col}
			}
			r.Locations = []sarifLocation{{PhysicalLocation: phys}}
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  sarifSchemaURI,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: ToolName, Version: ToolVersion, Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(&log)
}
