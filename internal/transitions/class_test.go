package transitions

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// classSource is the schema every instance of classInstances reads from:
// K is the key (the key checks', the binaries' and a grouper), COST the
// aggregated non-key, and each other attribute belongs to one instance.
var classSource = data.Schema{"K", "CUST", "DATE", "COST", "AMT", "NAME", "NOTE"}

// classInstances is one instance of each operator class the templates
// build, under a short name. Each call builds fresh activities.
func classInstances() []struct {
	name string
	act  *workflow.Activity
} {
	return []struct {
		name string
		act  *workflow.Activity
	}{
		{"σ-key", templates.Threshold("K", 10, 0.5)},
		{"σ-nonkey", templates.Threshold("COST", 100, 0.4)},
		{"notnull", templates.NotNull(0.9, "DATE")},
		{"pk-group", templates.PKCheck(0.8, "K")},
		{"pk-lookup", templates.PKCheckAgainst("KEYS", 0.7, "K")},
		{"distinct", templates.Distinct(0.95)},
		{"project", templates.ProjectOut("NOTE")},
		{"a2edate", templates.Reformat("a2edate", "DATE")},
		{"round", templates.Reformat("round", "COST")},
		{"convert", templates.Convert("upper", "UNAME", "NAME")},
		{"apply", templates.Apply("dollar2euro", "EAMT", "AMT")},
		{"aggregate", templates.Aggregate([]string{"K", "CUST", "DATE", "AMT", "NAME", "NOTE"}, workflow.AggSum, "COST", "TOTAL", 0.3)},
		{"sk", templates.SurrogateKey("CUST", "SKEY", "CUSTOMERS")},
		{"package", makeMerged([]*workflow.Activity{templates.Threshold("COST", 100, 0.4), templates.Distinct(0.95)})},
	}
}

// classChain builds SRC → x → y → TGT over classSource, or reports why
// that chain is not a well-formed workflow.
func classChain(x, y *workflow.Activity) (*workflow.Graph, []workflow.NodeID, error) {
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "SRC", Schema: classSource, Rows: 1000, IsSource: true})
	ids := []workflow.NodeID{g.AddActivity(x), g.AddActivity(y)}
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"K"}, IsTarget: true})
	g.MustAddEdge(src, ids[0])
	g.MustAddEdge(ids[0], ids[1])
	g.MustAddEdge(ids[1], tgt)
	if err := g.RegenerateSchemata(); err != nil {
		return nil, nil, err
	}
	g.Node(tgt).RS.Schema = g.Node(ids[1]).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		return nil, nil, err
	}
	return g, ids, g.CheckWellFormed()
}

// TestOperatorClassTable pins how each operator class commutes, distributes
// and is charged, so that a change to where the classes are written down
// must keep every answer: for every ordered pair of instances, the Swap
// verdict on the chain x → y with its rejection text; for each instance,
// CanDistributeOver a union, a join and a difference on K; and the row
// model's charge for 1000 input rows (for the binary kinds, 1000 and 500),
// bit for bit. A mismatch lists the lines that moved.
func TestOperatorClassTable(t *testing.T) {
	var got []string
	for i, x := range classInstances() {
		for j, y := range classInstances() {
			if i == j {
				continue
			}
			verdict := "ok"
			g, ids, err := classChain(x.act, y.act)
			if err != nil {
				verdict = "chain: " + err.Error()
			} else if _, err := Swap(g, ids[0], ids[1]); err != nil {
				verdict = err.Error()
			}
			got = append(got, fmt.Sprintf("swap %s %s: %s", x.name, y.name, verdict))
		}
	}
	binaries := []*workflow.Activity{templates.Union(), templates.Join(0.5, "K"), templates.Diff(0.5, "K"), templates.Intersect(0.5, "K")}
	for _, x := range classInstances() {
		var over []string
		for _, b := range binaries[:3] {
			over = append(over, fmt.Sprintf("%s=%t", b.Sem.Op, workflow.CanDistributeOver(x.act, b)))
		}
		got = append(got, fmt.Sprintf("distribute %s: %s", x.name, strings.Join(over, " ")))
	}
	for _, x := range classInstances() {
		c := cost.RowModel{}.ActivityCost(x.act, []float64{1000})
		got = append(got, fmt.Sprintf("cost %s: %016x", x.name, math.Float64bits(c)))
	}
	for _, b := range binaries {
		c := cost.RowModel{}.ActivityCost(b, []float64{1000, 500})
		got = append(got, fmt.Sprintf("cost %s: %016x", b.Sem.Op, math.Float64bits(c)))
	}

	text, err := os.ReadFile("testdata/classes.golden")
	if err != nil {
		t.Fatalf("%v; the table is:\n%s", err, strings.Join(got, "\n"))
	}
	want := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("%d lines, want %d; the table is:\n%s", len(got), len(want), strings.Join(got, "\n"))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
