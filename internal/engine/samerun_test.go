package engine

import (
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// TestSameRun pins the comparator every equivalence check goes through:
// it accepts only the same targets holding the same typed rows in the same
// order, with the same per-node counts, and its error names the target and
// row, or the node, where the runs part.
func TestSameRun(t *testing.T) {
	row := func(vs ...data.Value) data.Record { return data.Record(vs) }
	base := func() *RunResult {
		return &RunResult{
			Targets: map[string]data.Rows{
				"A": {row(data.NewInt(1), data.NewString("x")), row(data.NewInt(2), data.NewString("y"))},
				"B": {row(data.NewString("007")), row(data.NewFloat(2))},
			},
			NodeRows: map[workflow.NodeID]int{1: 2, 2: 2, 3: 2},
		}
	}
	cases := []struct {
		name string
		edit func(r *RunResult)
		want string // what the error must hold; "": the runs are the same
	}{
		{"identical", func(r *RunResult) { r.Elapsed = 42 }, ""},
		{"missing target", func(r *RunResult) { delete(r.Targets, "B") }, "target B missing"},
		{"extra target", func(r *RunResult) { r.Targets["C"] = nil }, "target C extra"},
		{"same rows, other order", func(r *RunResult) {
			a := r.Targets["A"]
			r.Targets["A"] = data.Rows{a[1], a[0]}
		}, "target A row 0: (int(2), string(y)), want (int(1), string(x))"},
		{"Int(2) for Float(2)", func(r *RunResult) {
			r.Targets["B"] = data.Rows{row(data.NewString("007")), row(data.NewInt(2))}
		}, "target B row 1: (int(2)), want (float(2))"},
		{"Int(7) for String(\"007\")", func(r *RunResult) {
			r.Targets["B"] = data.Rows{row(data.NewInt(7)), row(data.NewFloat(2))}
		}, "target B row 0: (int(7)), want (string(007))"},
		{"one NodeRows count off", func(r *RunResult) { r.NodeRows[2]++ }, "node 2 emitted 3 rows, want 2"},
		{"a node missing", func(r *RunResult) { delete(r.NodeRows, 3) }, "node 3 missing"},
		{"a node extra", func(r *RunResult) { r.NodeRows[4] = 0 }, "node 4 extra"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := base()
			tc.edit(got)
			err := SameRun(base(), got)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want the same run, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
