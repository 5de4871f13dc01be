package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// refRun is what the node-by-node reference reports of a run.
type refRun struct {
	targets  map[string]data.Rows
	nodeRows map[workflow.NodeID]int
	partRows map[workflow.NodeID][]int // activities: rows per partition
}

// nodeByNode is the frozen reference the stage loop is held to: the
// driver as it was before stages, one activity at a time, every node's
// output materialized per partition and kept. Each activity runs as a stage
// of one (runStage); every other node takes the path it takes in the
// driver. It is test-only by design — not a production switch.
func nodeByNode(t testing.TB, e *Engine, g *workflow.Graph, p int) refRun {
	t.Helper()
	e = e.forRun()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	ref := refRun{targets: map[string]data.Rows{}, nodeRows: map[workflow.NodeID]int{}, partRows: map[workflow.NodeID][]int{}}
	out := map[workflow.NodeID]*pdata{}
	for _, id := range order {
		n, preds := g.Node(id), g.Providers(id)
		var pd *pdata
		switch {
		case n.Kind == workflow.KindActivity:
			if pd, err = runStage(e, g, []workflow.NodeID{id}, out, p); err != nil {
				t.Fatal(err)
			}
		case len(preds) > 0:
			rows := realign(gather(out[preds[0]]), out[preds[0]].layout, n.RS.Schema)
			ref.targets[n.RS.Name] = rows
			pd = scatterRows(rows, p, n.RS.Schema)
		default:
			rows, err := e.scanSource(n)
			if err != nil {
				t.Fatal(err)
			}
			pd = scatterRows(rows, p, n.RS.Schema)
		}
		out[id] = pd
		ref.nodeRows[id] = pd.total()
		if n.Kind == workflow.KindActivity {
			for _, ps := range pd.parts {
				ref.partRows[id] = append(ref.partRows[id], len(ps.rows))
			}
		}
	}
	return ref
}

// runStage runs the activities ids as the driver runs a stage of them: a
// chain through execChain, a blocking activity through execParallel.
func runStage(e *Engine, g *workflow.Graph, ids []workflow.NodeID, out map[workflow.NodeID]*pdata, p int) (*pdata, error) {
	id := ids[len(ids)-1]
	n := g.Node(id)
	if n.Act.Class()&workflow.RowLocal == 0 {
		return e.execParallel(context.Background(), g, id, n, out, p, 0)
	}
	in := out[g.Providers(ids[0])[0]]
	c, err := e.resolveChain(g, ids, in.layout)
	if err != nil {
		return nil, err
	}
	pd, _, err := e.execChain(context.Background(), id, n, c, in, p, make([]scratch, p), 0)
	return pd, err
}

// checkFused runs g through the driver at p partitions with a journal
// and holds it to the reference: target row sequences, per-activity
// NodeRows, and exactly one node event per activity and one batch event
// per activity and partition, carrying the reference's counts. Targets
// and NodeRows must also be the run's at one partition, and every target
// record's cap its len.
func checkFused(t *testing.T, label string, bind func() map[string]data.Recordset, g *workflow.Graph, p int) {
	t.Helper()
	ref := nodeByNode(t, New(bind()), g, p)
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, nil)
	res, err := New(bind(), WithPartitions(p), WithJournal(j)).Run(context.Background(), g)
	if err != nil {
		t.Fatalf("%s P=%d: %v", label, p, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := SameRun(&RunResult{Targets: ref.targets, NodeRows: ref.nodeRows}, res); err != nil {
		t.Fatalf("%s P=%d: differs from the node-by-node reference: %v", label, p, err)
	}
	for name, rows := range res.Targets { // an append to a record cut from a chunk must not reach its neighbour
		for i, r := range rows {
			if cap(r) != len(r) {
				t.Fatalf("%s P=%d: target %s row %d has cap %d, len %d", label, p, name, i, cap(r), len(r))
			}
		}
	}
	if p > 1 { // the reference shares the partitioning rules: hold both to one partition
		one, err := New(bind()).Run(context.Background(), g)
		if err != nil {
			t.Fatalf("%s P=1: %v", label, err)
		}
		if err := SameRun(one, res); err != nil {
			t.Fatalf("%s P=%d: differs from the one-partition run: %v", label, p, err)
		}
	}
	evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	nodeEvents, batchEvents := map[string][]int64{}, map[string][]int64{}
	for _, ev := range evs {
		switch ev.T {
		case obs.EventNode:
			nodeEvents[ev.Node] = append(nodeEvents[ev.Node], ev.Rows)
		case obs.EventBatch:
			key := fmt.Sprintf("%s/%d", ev.Node, ev.Part)
			batchEvents[key] = append(batchEvents[key], ev.Rows)
		case obs.EventSummary:
			if ev.Dropped > 0 {
				t.Fatalf("%s P=%d: journal dropped %d events", label, p, ev.Dropped)
			}
		}
	}
	activities := 0
	for id, parts := range ref.partRows {
		activities++
		key := nodeKey(id, g.Node(id))
		if got := nodeEvents[key]; len(got) != 1 || got[0] != int64(ref.nodeRows[id]) {
			t.Fatalf("%s P=%d: node %s: node events %v, want one carrying %d", label, p, key, got, ref.nodeRows[id])
		}
		for q, want := range parts {
			if got := batchEvents[fmt.Sprintf("%s/%d", key, q)]; len(got) != 1 || got[0] != int64(want) {
				t.Fatalf("%s P=%d: node %s partition %d: batch events %v, want one carrying %d", label, p, key, q, got, want)
			}
		}
	}
	if len(nodeEvents) != activities || len(batchEvents) != activities*p {
		t.Fatalf("%s P=%d: %d node and %d batch event keys for %d activities", label, p, len(nodeEvents), len(batchEvents), activities)
	}
}

// fusedSizes are the source sizes the comparison cycles through: empty,
// one row, and the batch boundary from both sides.
var fusedSizes = []int{0, 1, batchRows - 1, batchRows, batchRows + 1, 3000}

// truncated binds sc with every branch feed cut to n rows (the dimension
// and the lookups stay whole).
func truncated(sc *templates.Scenario, n int) func() map[string]data.Recordset {
	return func() map[string]data.Recordset {
		b := sc.Bind()
		for name, rows := range sc.Sources {
			if schema := sc.Schemas[name]; schema.Has("KEY") && len(rows) > n {
				b[name] = data.NewMemoryRecordset(name, schema).MustLoad(rows[:n])
			}
		}
		return b
	}
}

// TestFusedStageMatchesNodeByNode holds the stage loop to the
// node-by-node reference on 200 generator workflows, each at P ∈ {1, 2, 8}
// and one of fusedSizes in rotation, then on the hand-built shapes and
// keyed.etl at every size. partitioningShapes try each rule that lets an
// operator skip its exchange, workRecordShapes each way members share a
// row's work record.
func TestFusedStageMatchesNodeByNode(t *testing.T) {
	i, fused := 0, 0
	for _, c := range []struct {
		cat generator.Category
		n   int
	}{{generator.Small, 140}, {generator.Medium, 40}, {generator.Large, 20}} {
		for k := 0; k < c.n; k++ {
			size := fusedSizes[i%len(fusedSizes)]
			cfg := generator.CategoryConfig(c.cat, 81_000+int64(i)*7919)
			cfg.DataRows = max(size, 1)
			sc, err := generator.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s #%d size %d", c.cat, k, size)
			g := sc.Graph
			order, _ := g.TopoSort()
			for _, ids := range planStages(g, order, nil) {
				if len(ids) > 1 {
					fused++
				}
			}
			for _, p := range []int{1, 2, 8} {
				checkFused(t, label, truncated(sc, size), g, p)
			}
			i++
		}
	}
	if fused < 200 {
		t.Errorf("%d fused stages over the corpus; it no longer exercises them", fused)
	}
	shapes := append(partitioningShapes(t), workRecordShapes(t)...)
	for _, size := range fusedSizes {
		for _, p := range []int{1, 2, 8} {
			g, bind := realignedHead(t, size)
			checkFused(t, fmt.Sprintf("realigned head, size %d", size), bind, g, p)
			g, bind = twoConsumers(t, size)
			checkFused(t, fmt.Sprintf("two consumers, size %d", size), bind, g, p)
			g, bind = keyedWorkload(t, size)
			checkFused(t, fmt.Sprintf("keyed.etl, size %d", size), bind, g, p)
			for _, shape := range shapes {
				checkFused(t, fmt.Sprintf("%s, size %d", shape.name, size), bindShapes(size), shape.g, p)
			}
		}
	}
}

// partitioningShapes are flows that would go wrong if a partitioning were
// carried where it does not hold (pdata.on): between two operators keyed
// alike, something rewrites (a function or an aggregate's output) or drops
// the key, merges differently partitioned inputs, or leaves a binary
// operator's side partitioned on only part of its key; or a join fans a
// left row out to rows that are then exchanged apart. They read
// bindShapes' recordsets.
func partitioningShapes(t testing.TB) []shape {
	// γ by V2 (on V2), then V2 rewritten many-to-one, then γ by V2 again.
	byV2 := func(attr, out string) *workflow.Activity {
		return templates.Aggregate([]string{"V2"}, workflow.AggSum, attr, out, 0.1)
	}
	round := func() *workflow.Activity { return templates.Reformat("round", "V2") }
	funcRewrites, _ := chainGraph(t, measureSchema, byV2("V1", "TOTAL"), round(), byV2("TOTAL", "T2"))
	projectDrops, _ := chainGraph(t, measureSchema, byV2("V1", "TOTAL"), templates.ProjectOut("V2"),
		templates.Apply("round", "V2", "TOTAL"), byV2("TOTAL", "T2"))
	// The middle γ writes its row count over its grouper V2.
	overwrites, _ := chainGraph(t, measureSchema, byV2("V1", "TOTAL"),
		templates.Aggregate([]string{"V2"}, workflow.AggCount, "", "V2", 1), byV2("V2", "T2"))
	pk := func(keys ...string) *workflow.Activity { return templates.PKCheck(1, keys...) }
	return []shape{
		{"function rewrites the key", funcRewrites},
		{"projection drops the key", projectDrops},
		// DISTINCT (on the whole record) ∪ PK(KEY) (on KEY), grouped by the
		// whole record.
		{"union of differently partitioned inputs", shapeGraph(t, map[string]*workflow.Activity{
			"d": templates.Distinct(1), "pk": pk("KEY"), "u": templates.Union(),
			"agg": templates.Aggregate(measureSchema, workflow.AggCount, "", "N", 1),
		}, "SRC d", "SRC2 pk", "d u", "pk u", "u agg")},
		// PK(KEY) (on KEY) minus SRC2 (arbitrary) by (KEY, V3).
		{"diff partitioned on part of its key", shapeGraph(t, map[string]*workflow.Activity{
			"pk": pk("KEY"), "df": templates.Diff(0.5, "KEY", "V3"),
		}, "SRC pk", "pk df", "SRC2 df")},
		// Each row matches two DIM rows, which PK(KEY, LABEL) exchanges apart.
		{"join fans out before an exchange", shapeGraph(t, map[string]*workflow.Activity{
			"pk": pk("KEY"), "j": templates.Join(2, "V3"), "pk2": pk("KEY", "LABEL"),
		}, "SRC pk", "pk j", "DIM j", "j pk2")},
		{"aggregate overwrites its grouper", overwrites},
	}
}

type shape struct {
	name string
	g    *workflow.Graph
}

// workRecordShapes are chains whose members share a row's work record in
// each way that can go wrong: a slot dropped and written again, writers
// overwriting what they read (in place, or not, and a fused writer after a
// filter), an in-place reformat of a converted value, a filter after the
// last writer, a projection last that drops the fused writer's output,
// and unions fed by chains in other attribute orders — one filter-only,
// whose input records are then re-laid out rather than shared. They read
// bindShapes' recordsets.
func workRecordShapes(t testing.TB) []shape {
	chain := func(src string, acts ...*workflow.Activity) *workflow.Graph {
		named, edges, prev := map[string]*workflow.Activity{}, []string(nil), src
		for i, a := range acts {
			name := fmt.Sprint("a", i)
			named[name], edges, prev = a, append(edges, prev+" "+name), name
		}
		return shapeGraph(t, named, edges...)
	}
	nn := templates.NotNull
	return []shape{
		{"a dropped slot written again", chain("SRC", nn(0.9, "V1"), templates.ProjectOut("V2"),
			templates.Apply("round", "V2", "V1"), templates.Threshold("V2", 40, 0.5))},
		{"writers overwrite what they read", chain("SRC", templates.Reformat("round", "V2"),
			templates.SurrogateKey("KEY", "KEY", "KEYS"), nn(0.9, "V2"), templates.Reformat("round", "V1"))},
		{"a reformat of a converted value", chain("DATES", templates.Apply("concat", "D", "D", "M"),
			templates.Convert("concat", "DATE", "D", "Y"), templates.Reformat("a2edate", "DATE"))},
		{"a filter after the last writer", chain("SRC", scale(), templates.Convert("dollar2euro", "E2", "V2"),
			templates.Threshold("W1", 300, 0.5))},
		{"a projection last", chain("SRC", nn(0.9, "V1"), scale(), templates.Apply("round", "R", "V2"),
			templates.ProjectOut("R", "V3"))},
		{"a union of a chain and a filter-only chain", shapeGraph(t, map[string]*workflow.Activity{
			"nn": nn(0.9, "V1"), "w": scale(), "th": templates.Threshold("W1", 300, 0.5), "u": templates.Union(),
		}, "SRC nn", "nn w", "PERM th", "w u", "th u")},
		unionOfChains(t),
	}
}

// scale is W1 := scale10(V1), with V1 projected out.
func scale() *workflow.Activity { return templates.Convert("scale10", "W1", "V1") }

// unionOfChains is SRC → NN → scale10 and SRC3 → NN → scale10, whose
// outputs hold one attribute set in two orders, into a union read by a
// filter: the union's layout is the SRC3 chain's, which is its left input.
func unionOfChains(t testing.TB) shape {
	return shape{"a union of chains in other orders", shapeGraph(t, map[string]*workflow.Activity{
		"nn": templates.NotNull(0.9, "V1"), "w": scale(), "nn3": templates.NotNull(0.9, "V2"), "w3": scale(),
		"u": templates.Union(), "after": templates.NotNull(0.9, "V3"),
	}, "SRC nn", "nn w", "SRC3 nn3", "nn3 w3", "w3 u", "w u", "u after")}
}

// shapeGraph builds a flow over the sources SRC, SRC2, SRC3, PERM, DATES
// and DIM from "from to" edges between them and the named activities; the
// last edge's head feeds the target TGT.
func shapeGraph(t testing.TB, acts map[string]*workflow.Activity, edges ...string) *workflow.Graph {
	g := workflow.NewGraph()
	ids := map[string]workflow.NodeID{}
	node := func(name string) workflow.NodeID {
		if _, ok := ids[name]; !ok && acts[name] != nil {
			ids[name] = g.AddActivity(acts[name])
		} else if !ok {
			schema := shapeSchemas[name]
			ids[name] = g.AddRecordset(&workflow.RecordsetRef{Name: name, Schema: schema, Rows: 1000, IsSource: true})
		}
		return ids[name]
	}
	var last workflow.NodeID
	for _, e := range edges {
		from, to, _ := strings.Cut(e, " ")
		last = node(to)
		g.MustAddEdge(node(from), last)
	}
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(last, g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: g.Node(last).Out.Clone(), IsTarget: true}))
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	return g
}

var dimSchema = data.Schema{"V3", "LABEL"}

var shapeSchemas = map[string]data.Schema{
	"SRC": measureSchema, "SRC2": measureSchema, "SRC3": {"V3", "V1", "KEY", "V2"}, "PERM": {"W1", "V3", "KEY", "V2"},
	"DATES": {"KEY", "D", "M", "Y"}, "DIM": dimSchema, "KEYS": {"KEY", "SKEY"},
}

// bindShapes binds SRC to n measure rows, SRC2 to every third of them, so
// the two share keys and whole records, SRC3 and PERM to the measure rows
// in other orders (PERM with W1 = 10 × V1), DATES to n dates split in
// three strings, DIM to two labels per V3 and KEYS to a surrogate per KEY.
func bindShapes(n int) func() map[string]data.Recordset {
	return func() map[string]data.Recordset {
		rows := measureRows(n)
		tables := map[string]data.Rows{"SRC": rows}
		for i, r := range rows {
			if i%3 == 0 {
				tables["SRC2"] = append(tables["SRC2"], r)
			}
			w1 := data.Null
			if !r[1].IsNull() {
				w1 = data.NewFloat(10 * r[1].Float())
			}
			m := data.NewString(fmt.Sprintf("/%02d", 1+i%28))
			if i%19 == 18 {
				m = data.Null
			}
			tables["SRC3"] = append(tables["SRC3"], data.Record{r[3], r[1], r[0], r[2]})
			tables["PERM"] = append(tables["PERM"], data.Record{w1, r[3], r[0], r[2]})
			tables["DATES"] = append(tables["DATES"], data.Record{r[0], data.NewString(fmt.Sprintf("%02d", 1+i%12)), m, data.NewString("/2005")})
			tables["KEYS"] = append(tables["KEYS"], data.Record{r[0], data.NewInt(int64(100000 + i))})
		}
		for v := range 7 {
			for _, label := range []string{"a", "b"} {
				tables["DIM"] = append(tables["DIM"], data.Record{data.NewInt(int64(v)), data.NewString(label)})
			}
		}
		b := map[string]data.Recordset{}
		for name, schema := range shapeSchemas {
			b[name] = data.NewMemoryRecordset(name, schema).MustLoad(tables[name])
		}
		return b
	}
}

// chainGraph builds SRC → acts… → TGT over schema, like runChain.
func chainGraph(t testing.TB, schema data.Schema, acts ...*workflow.Activity) (*workflow.Graph, []workflow.NodeID) {
	t.Helper()
	g := workflow.NewGraph()
	cur := g.AddRecordset(&workflow.RecordsetRef{Name: "SRC", Schema: schema, Rows: 1000, IsSource: true})
	var ids []workflow.NodeID
	for _, a := range acts {
		id := g.AddActivity(a)
		g.MustAddEdge(cur, id)
		ids = append(ids, id)
		cur = id
	}
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"x"}, IsTarget: true})
	g.MustAddEdge(cur, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	g.Node(tgt).RS.Schema = g.Node(cur).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	return g, ids
}

// measureRows are n rows of (KEY, V1, V2, V3): a dense key, and measures
// with a NULL every 11th, 13th and 17th row.
func measureRows(n int) data.Rows {
	rows := make(data.Rows, n)
	for i := range rows {
		r := data.Record{data.NewInt(int64(i)), data.NewFloat(float64(i % 97)), data.NewFloat(float64(i%89) / 8), data.NewInt(int64(i % 7))}
		for c, every := range []int{11, 13, 17} {
			if i%every == every-1 {
				r[c+1] = data.Null
			}
		}
		rows[i] = r
	}
	return rows
}

var measureSchema = data.Schema{"KEY", "V1", "V2", "V3"}

func bindMeasures(n int) func() map[string]data.Recordset {
	return func() map[string]data.Recordset {
		return map[string]data.Recordset{"SRC": data.NewMemoryRecordset("SRC", measureSchema).MustLoad(measureRows(n))}
	}
}

// realignedHead is a chain whose head's derived input layout is a
// permutation of its provider's output layout, as a graph rewrite can
// leave it: the stage must start with a re-layout.
func realignedHead(t testing.TB, n int) (*workflow.Graph, func() map[string]data.Recordset) {
	g, ids := chainGraph(t, measureSchema,
		templates.NotNull(0.9, "V1"), templates.Convert("scale10", "W1", "V1"), templates.Threshold("W1", 300, 0.5))
	head := g.Node(ids[0])
	head.In[0] = data.Schema{"V3", "V1", "KEY", "V2"}
	head.Out = head.In[0]
	for _, id := range ids[1:] {
		n := g.Node(id)
		n.In[0] = g.Node(g.Providers(id)[0]).Out
		out, err := workflow.DeriveOutput(n.Act, n.In)
		if err != nil {
			t.Fatal(err)
		}
		n.Out = out
	}
	return g, bindMeasures(n)
}

// twoConsumers is SRC → nn → scale → {σ → T1, π → T2}: scale feeds two
// consumers and so must end its stage.
func twoConsumers(t testing.TB, n int) (*workflow.Graph, func() map[string]data.Recordset) {
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "SRC", Schema: measureSchema, Rows: 1000, IsSource: true})
	nn := g.AddActivity(templates.NotNull(0.9, "V1"))
	scale := g.AddActivity(templates.Convert("scale10", "W1", "V1"))
	sigma := g.AddActivity(templates.Threshold("W1", 300, 0.5))
	pi := g.AddActivity(templates.ProjectOut("V3"))
	t1 := g.AddRecordset(&workflow.RecordsetRef{Name: "T1", Schema: data.Schema{"KEY", "V2", "V3", "W1"}, IsTarget: true})
	t2 := g.AddRecordset(&workflow.RecordsetRef{Name: "T2", Schema: data.Schema{"KEY", "V2", "W1"}, IsTarget: true})
	for _, e := range [][2]workflow.NodeID{{src, nn}, {nn, scale}, {scale, sigma}, {scale, pi}, {sigma, t1}, {pi, t2}} {
		g.MustAddEdge(e[0], e[1])
	}
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	return g, bindMeasures(n)
}

func TestPlanStages(t *testing.T) {
	g, _ := twoConsumers(t, 0)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var parts []string
		for _, ids := range planStages(g, order, nil) {
			parts = append(parts, fmt.Sprint(ids))
		}
		return strings.Join(parts, " ")
	}
	// IDs in insertion order: SRC 1, nn 2, scale 3, σ 4, π 5, T1 6, T2 7.
	if got, want := render(), "[1] [2 3] [4] [5] [6] [7]"; got != want {
		t.Errorf("plan %s, want %s", got, want)
	}

	// Where sources go: S1 1, S2 2, S3 3, then nn 4 (reads S1), ∪ 5 (reads
	// nn and S2), σ 6 (S2's second reader), T1 7 ← ∪, T2 8 ← σ, T3 9 ← S3
	// with no activity between. In ID order all three sources lead; placed,
	// each stands directly before its first reader — S2 before ∪, not σ.
	g = workflow.NewGraph()
	var ids []workflow.NodeID
	for _, name := range []string{"S1", "S2", "S3"} {
		ids = append(ids, g.AddRecordset(&workflow.RecordsetRef{Name: name, Schema: measureSchema, Rows: 100, IsSource: true}))
	}
	ids = append(ids, g.AddActivity(templates.NotNull(0.9, "V1")), g.AddActivity(templates.Union()), g.AddActivity(templates.Threshold("V1", 10, 0.5)))
	for _, name := range []string{"T1", "T2", "T3"} {
		ids = append(ids, g.AddRecordset(&workflow.RecordsetRef{Name: name, Schema: measureSchema, IsTarget: true}))
	}
	for _, e := range [][2]int{{1, 4}, {4, 5}, {2, 5}, {2, 6}, {5, 7}, {6, 8}, {3, 9}} {
		g.MustAddEdge(ids[e[0]-1], ids[e[1]-1])
	}
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if order, err = g.TopoSort(); err != nil {
		t.Fatal(err)
	}
	if got, want := render(), "[1] [4] [2] [5] [6] [7] [8] [3] [9]"; got != want {
		t.Errorf("plan %s, want %s", got, want)
	}
}

// TestPlanStagesFusesRowLocalKinds pins which members of a chain that
// holds every unary kind planStages fuses: runs of selections, not-null
// checks, lookup key checks, functions, projections and surrogate keys
// become one stage each; DISTINCT, the aggregation and the group-based key
// check stand alone.
func TestPlanStagesFusesRowLocalKinds(t *testing.T) {
	g := workflow.NewGraph()
	ids := []workflow.NodeID{g.AddRecordset(&workflow.RecordsetRef{Name: "SRC", Schema: data.Schema{"K", "CUST", "DATE", "COST", "AMT", "NAME", "NOTE"}, Rows: 100, IsSource: true})}
	for _, a := range []*workflow.Activity{
		templates.Threshold("K", 10, 0.5),             // 2
		templates.NotNull(0.9, "DATE"),                // 3
		templates.Distinct(0.95),                      // 4
		templates.Reformat("round", "COST"),           // 5
		templates.ProjectOut("NOTE"),                  // 6
		templates.PKCheckAgainst("KEYS", 0.7, "K"),    // 7
		templates.Apply("dollar2euro", "EAMT", "AMT"), // 8
		templates.Aggregate([]string{"K", "CUST", "DATE", "AMT", "NAME", "EAMT"}, workflow.AggSum, "COST", "TOTAL", 0.3), // 9
		templates.SurrogateKey("CUST", "SKEY", "CUSTOMERS"),                                                              // 10
		templates.Convert("upper", "UNAME", "NAME"),                                                                      // 11
		templates.PKCheck(0.8, "K"),                                                                                      // 12
		templates.Reformat("a2edate", "DATE"),                                                                            // 13
	} {
		id := g.AddActivity(a)
		g.MustAddEdge(ids[len(ids)-1], id)
		ids = append(ids, id)
	}
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"K", "DATE", "AMT", "EAMT", "TOTAL", "SKEY", "UNAME"}, IsTarget: true})
	g.MustAddEdge(ids[len(ids)-1], tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, ids := range planStages(g, order, nil) {
		parts = append(parts, fmt.Sprint(ids))
	}
	if got, want := strings.Join(parts, " "), "[1] [2 3] [4] [5 6 7 8] [9] [10 11] [12] [13] [14]"; got != want {
		t.Errorf("plan %s, want %s", got, want)
	}
}

// keyedWorkload parses benchmark/workloads/keyed.etl and generates n rows
// per order feed for it (5 % duplicates, skewed customers, NULL amounts).
func keyedWorkload(t testing.TB, n int) (*workflow.Graph, func() map[string]data.Recordset) {
	t.Helper()
	text, err := os.ReadFile("../../benchmark/workloads/keyed.etl")
	if err != nil {
		t.Fatal(err)
	}
	g, err := dsl.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n) + 1))
	const custs = 50
	orderID := func(feed string, i int) data.Value { return data.NewString(fmt.Sprintf("ORD-%s-%06d", feed, i)) }
	feed := func(name string) data.Rows {
		rows := make(data.Rows, 0, n)
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(20) == 0 {
				rows = append(rows, rows[rng.Intn(i)])
				continue
			}
			amount := data.NewFloat(float64(rng.Intn(8000)) / 8)
			if rng.Intn(50) == 0 {
				amount = data.Null
			}
			rows = append(rows, data.Record{orderID(name, i), data.NewString(fmt.Sprintf("C%03d", rng.Intn(custs)*rng.Intn(custs)/custs)),
				data.NewInt(int64(1 + rng.Intn(9))), amount, data.NewString("note")})
		}
		return rows
	}
	tables := map[string]data.Rows{"ORDERS_A": feed("A"), "ORDERS_B": feed("B")}
	schemas := map[string]data.Schema{
		"ORDERS_A": {"ORDER_ID", "CUST", "QTY", "AMOUNT", "NOTE"}, "ORDERS_B": {"ORDER_ID", "CUST", "QTY", "AMOUNT", "NOTE"},
		"CANCELLED": {"ORDER_ID"}, "DWORDERS": {"ORDER_ID"}, "ACTIVE": {"CUST_SK"},
		"CUSTDIM": {"CUST_SK", "REGION"}, "CUSTKEYS": {"CUST", "CUST_SK"},
	}
	for i := 0; i < n; i += 10 {
		tables["CANCELLED"] = append(tables["CANCELLED"], data.Record{orderID("A", i)})
		tables["DWORDERS"] = append(tables["DWORDERS"], data.Record{orderID("B", i+3)})
	}
	for c := 0; c < custs; c++ {
		sk := data.NewInt(int64(9000 + c))
		tables["CUSTKEYS"] = append(tables["CUSTKEYS"], data.Record{data.NewString(fmt.Sprintf("C%03d", c)), sk})
		tables["CUSTDIM"] = append(tables["CUSTDIM"], data.Record{sk, data.NewString(fmt.Sprintf("R%d", c%5))})
		if c%5 != 4 {
			tables["ACTIVE"] = append(tables["ACTIVE"], data.Record{sk})
		}
	}
	return g, func() map[string]data.Recordset {
		b := map[string]data.Recordset{}
		for name, schema := range schemas {
			b[name] = data.NewMemoryRecordset(name, schema).MustLoad(tables[name])
		}
		return b
	}
}

// allocChain is an 8-member chain with 4 transforms (scale10, dollar2euro,
// surrogate key, projection) and 4 filters, the last of them after the
// last transform — none of which allocates beyond its output record.
func allocChain(t testing.TB, n int) (*Engine, *workflow.Graph, []workflow.NodeID, *pdata) {
	g, ids := chainGraph(t, measureSchema,
		templates.NotNull(0.9, "V1"), templates.Convert("scale10", "W1", "V1"), templates.Threshold("W1", 100, 0.9),
		templates.Convert("dollar2euro", "E2", "V2"), templates.NotNull(0.9, "V3"),
		templates.SurrogateKey("KEY", "SKEY", "KEYS"), templates.ProjectOut("V3"), templates.Threshold("E2", 0.5, 0.9))
	keys := make(data.Rows, n)
	for i := range keys {
		keys[i] = data.Record{data.NewInt(int64(i)), data.NewInt(int64(100000 + i))}
	}
	e := New(map[string]data.Recordset{
		"KEYS": data.NewMemoryRecordset("KEYS", data.Schema{"KEY", "SKEY"}).MustLoad(keys),
	}).forRun()
	return e, g, ids, scatterRows(measureRows(n), 1, measureSchema)
}

// TestStageAllocations is the allocation ceiling of a fused stage: its
// survivors' records cut from chunks (plus the output slices and the
// scratch, which do not grow with the rows), on a small input no more than
// the node-by-node reference — a fixed batchRows slab would be —, a
// scratch that does not grow with the transforms, and a union of chains
// that makes no record.
func TestStageAllocations(t *testing.T) {
	const n = 10000
	e, g, ids, in := allocChain(t, n)
	if _, err := e.lookupTable("KEYS", true); err != nil { // built once per run, not per stage
		t.Fatal(err)
	}
	var out *pdata
	inputs := map[workflow.NodeID]*pdata{g.Providers(ids[0])[0]: in}
	perRun := testing.AllocsPerRun(3, func() {
		var err error
		if out, err = runStage(e, g, ids, inputs, 1); err != nil {
			t.Fatal(err)
		}
	})
	survivors := out.total()
	if survivors < n/2 || survivors == n {
		t.Fatalf("%d of %d rows survive; the fixture no longer exercises the filters", survivors, n)
	}
	if per := perRun / float64(survivors); per > 0.1 {
		t.Errorf("%.3f allocations per surviving row, ceiling 0.1", per)
	}

	e, g, ids, in = allocChain(t, 120)
	if _, err := e.lookupTable("KEYS", true); err != nil {
		t.Fatal(err)
	}
	bytesOf := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	inputs = map[workflow.NodeID]*pdata{g.Providers(ids[0])[0]: in}
	fused := bytesOf(func() {
		if _, err := runStage(e, g, ids, inputs, 1); err != nil {
			t.Fatal(err)
		}
	})
	reference := bytesOf(func() {
		for _, id := range ids {
			pd, err := runStage(e, g, []workflow.NodeID{id}, inputs, 1)
			if err != nil {
				t.Fatal(err)
			}
			inputs[id] = pd
		}
	})
	if fused > reference {
		t.Errorf("120 rows: the fused stage allocates %d bytes, node by node %d", fused, reference)
	}

	// Three transforms and a filter after them, then with three in-place
	// rewrites more: one output record per surviving row, plus the output's
	// slot and tag per input row (both are presized to the input), plus a
	// scratch of batchRows work records as wide as the input layout and the
	// attributes the members add — however many transforms write them.
	e = New(nil).forRun()
	var err error
	chainBytes := func(rewrites ...*workflow.Activity) (uint64, uint64) {
		acts := []*workflow.Activity{templates.NotNull(0.9, "V1"), templates.Convert("scale10", "W1", "V1"),
			templates.Convert("dollar2euro", "E2", "V2"), templates.Apply("round", "R", "V3")}
		g, ids := chainGraph(t, measureSchema, append(append(acts, rewrites...), templates.Threshold("W1", 100, 0.9))...)
		inputs := map[workflow.NodeID]*pdata{g.Providers(ids[0])[0]: scatterRows(measureRows(n), 1, measureSchema)}
		got := bytesOf(func() {
			if out, err = runStage(e, g, ids, inputs, 1); err != nil {
				t.Fatal(err)
			}
		})
		value, work := uint64(unsafe.Sizeof(data.Value{})), uint64(len(measureSchema)+3) // + W1, E2, R
		record := value * uint64(len(g.Node(ids[len(ids)-1]).Out))
		scratch := batchRows * (uint64(unsafe.Sizeof(data.Record{})) + 8 + 4 + value*work) // cur, seq, sel, work records
		return got, uint64(out.total())*record + n*(uint64(unsafe.Sizeof(data.Record{}))+8) + scratch
	}
	three, ceiling := chainBytes()
	six, _ := chainBytes(templates.Reformat("round", "R"), templates.Reformat("round", "E2"), templates.Reformat("scale10", "E2"))
	if survivors := out.total(); survivors < n/2 || survivors == n {
		t.Fatalf("%d of %d rows survive; the fixture no longer exercises the filters", survivors, n)
	}
	const slack = 32 << 10 // the kernels, the tally and the output slices' rounding
	t.Logf("three transforms: %d bytes, ceiling %d + %d; six: %d", three, ceiling, slack, six)
	if three > ceiling+slack {
		t.Errorf("three transforms: %d bytes, ceiling %d + %d", three, ceiling, slack)
	}
	if six > three+slack/8 {
		t.Errorf("six transforms: %d bytes, three: %d; the scratch grows with the transforms", six, three)
	}

	// A union fed by two chains in other orders concatenates: the chain
	// whose layout is not the union's writes the union's.
	sh := unionOfChains(t)
	e = New(bindShapes(n)()).forRun()
	outs, u := map[workflow.NodeID]*pdata{}, workflow.NodeID(0)
	order, err := sh.g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range planStages(sh.g, order, nil) {
		id := ids[len(ids)-1]
		switch n := sh.g.Node(id); {
		case u != 0: // the union and what follows it are not run here
		case len(sh.g.Providers(id)) == 0:
			rows, err := e.scanSource(n)
			if err != nil {
				t.Fatal(err)
			}
			outs[id] = scatterRows(rows, 1, n.RS.Schema)
		case n.Act.Sem.Op == workflow.OpUnion:
			u = id
		default:
			if outs[id], err = runStage(e, sh.g, ids, outs, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if out, err = runStage(e, sh.g, []workflow.NodeID{u}, outs, 1); err != nil {
			t.Fatal(err)
		}
	})
	if out.total() < n {
		t.Fatalf("the union holds %d rows; the fixture no longer feeds it", out.total())
	}
	t.Logf("the union of %d rows: %.0f allocations", out.total(), allocs)
	if allocs > 32 {
		t.Errorf("the union of %d rows makes %.0f allocations; it should make no record", out.total(), allocs)
	}
}

// TestCheckpointStagesAChainInItsLayout crashes a checkpointed run of
// unionOfChains once the SRC chain — which writes the union's layout, not
// its own — is staged (SRC3's scan fails), requires its row file to hold
// the chain's own output layout, and resumes: targets and NodeRows must be
// an uninterrupted run's, at P = 1 and 8.
func TestCheckpointStagesAChainInItsLayout(t *testing.T) {
	g := unionOfChains(t).g
	var u workflow.NodeID
	for _, id := range g.Activities() {
		if g.Node(id).Act.Sem.Op == workflow.OpUnion {
			u = id
		}
	}
	w := g.Providers(u)[1] // the SRC chain's last member
	if g.Node(w).Out.Equal(g.Node(u).Out) {
		t.Fatal("the SRC chain's layout is the union's; the fixture no longer hands a layout over")
	}
	bind := func(failures *int) map[string]data.Recordset {
		b := bindShapes(3000)()
		b["SRC3"] = failingRecordset{b["SRC3"], failures}
		return b
	}
	for _, p := range []int{1, 8} {
		opts := []Option{WithPartitions(p)}
		none, once := 0, 1
		want, err := New(bind(&none), opts...).Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "stage")
		if _, err := NewCheckpointRunner(New(bind(&once), opts...), dir).Run(context.Background(), g); !errors.Is(err, errInjected) {
			t.Fatalf("P=%d: the crashing run returned %v, want the injected error", p, err)
		}
		schema, rows, err := data.ReadRowFile(filepath.Join(dir, fmt.Sprintf("stage-%d.rows", w)))
		if err != nil {
			t.Fatalf("P=%d: the SRC chain's stage: %v", p, err)
		}
		if !schema.Equal(g.Node(w).Out) || len(rows) != want.NodeRows[w] {
			t.Errorf("P=%d: staged %d rows as {%s}, want %d as {%s}", p, len(rows), schema, want.NodeRows[w], g.Node(w).Out)
		}
		got, err := NewCheckpointRunner(New(bind(&none), opts...), dir).Run(context.Background(), g)
		if err != nil {
			t.Fatalf("P=%d: the resumed run: %v", p, err)
		}
		if err := SameRun(want, got); err != nil {
			t.Errorf("P=%d: the resumed run differs from an uninterrupted one: %v", p, err)
		}
	}
}

// generated is a source that builds its rows on every Scan and keeps
// none, so a run's live heap holds only what the engine holds.
type generated struct {
	data.Recordset
	n int
}

func (s generated) Scan() (data.Rows, error) { return measureRows(s.n), nil }

// heapProbe is a target whose Load collects and reads the live heap.
type heapProbe struct {
	data.Recordset
	live *uint64
}

func (p heapProbe) Load(rows data.Rows) error {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	*p.live = ms.HeapAlloc
	return nil
}

// TestIntermediatesReleased pins the release rule: when the target loads,
// the run holds little more than the target's own rows — not the output
// of every node that ran, which is what the driver held before it counted
// each node's readers. Six branches of eight activities each cut by two
// blocking DISTINCTs, so the branches' outputs are materialized, then
// dropped; the unions' too.
func TestIntermediatesReleased(t *testing.T) {
	const branches, n = 6, 20000
	g := workflow.NewGraph()
	bindings := map[string]data.Recordset{}
	var tail workflow.NodeID
	for b := 0; b < branches; b++ {
		name := fmt.Sprintf("SRC%d", b)
		cur := g.AddRecordset(&workflow.RecordsetRef{Name: name, Schema: measureSchema, Rows: n, IsSource: true})
		bindings[name] = generated{data.NewMemoryRecordset(name, measureSchema), n}
		for _, a := range []*workflow.Activity{
			templates.NotNull(0.9, "V1"), templates.Convert("scale10", "W1", "V1"), templates.Distinct(1),
			templates.Convert("dollar2euro", "E2", "V2"), templates.Threshold("W1", 100, 0.9), templates.Distinct(1),
			templates.Convert("scale10", "W3", "V3"), templates.NotNull(0.9, "E2"),
		} {
			id := g.AddActivity(a)
			g.MustAddEdge(cur, id)
			cur = id
		}
		if b > 0 {
			u := g.AddActivity(templates.Union())
			g.MustAddEdge(tail, u)
			g.MustAddEdge(cur, u)
			cur = u
		}
		tail = cur
	}
	width := len(measureSchema) // each conversion drops its argument and adds its result
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"KEY", "W1", "E2", "W3"}, IsTarget: true})
	g.MustAddEdge(tail, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	var live uint64
	bindings["TGT"] = heapProbe{data.NewMemoryRecordset("TGT", g.Node(tgt).RS.Schema), &live}
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	res, err := New(bindings).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(res.Targets["TGT"])
	if rows < branches*n/2 {
		t.Fatalf("target holds %d rows; the fixture no longer carries most of its input through", rows)
	}
	// A target row is a slice header and width values.
	own := uint64(rows) * uint64(24+int(unsafe.Sizeof(data.Value{}))*width)
	held := live - min(live, base.HeapAlloc)
	t.Logf("live heap at load %.1f MB, target rows %.1f MB", float64(held)/1e6, float64(own)/1e6)
	if held > 3*own {
		t.Errorf("live heap at load is %.1f MB for a target of %.1f MB: intermediates are still held", float64(held)/1e6, float64(own)/1e6)
	}
}

// TestBoundFilterAnswersAsUnbound: a filter's predicate, bound to its work
// layout when its kernel is resolved, gives every row the value and the
// error the unbound predicate gives. An attribute the layout lacks does not
// fail the resolution, so a stage of no rows does not fail; it fails at the
// first row, with algebra's error.
func TestBoundFilterAnswersAsUnbound(t *testing.T) {
	in := data.Schema{"A", "B", "S", "T"}
	work := data.Schema{"A", "X", "B", "S", "T"}
	rows := data.Rows{
		{data.NewInt(1), data.NewInt(9), data.NewFloat(2.5), data.NewString("x"), data.NewString("7")},
		{data.NewInt(4), data.Null, data.NewInt(-3), data.NewString(""), data.Null},
		{data.NewInt(7), data.NewString("z"), data.Null, data.Null, data.NewString(" q ")},
	}
	failed := 0
	for _, src := range []string{
		"A > 1", "A + B >= 0 and not(S = 'x')", "isnull(B) or A <> B", "upper(S) = 'X' or trim(T) = 'q'",
		"A * 2 - B < 10", "C > 1", "A > 1 and C = 2", "A < 4 or upper(C) = 'Y'", "X = 9",
	} {
		pred, err := dsl.ParsePredicate(src)
		if err != nil {
			t.Fatal(err)
		}
		k, err := New(nil).resolveKernel(rowKernel{}, templates.Filter(pred, 0.5), in, in, work)
		if err != nil {
			t.Fatalf("%s: resolving the filter failed before any row: %v", src, err)
		}
		if k.pred.String() != pred.String() {
			t.Errorf("%s: bound predicate renders %s", src, k.pred)
		}
		for i, r := range rows {
			rec := data.Record{r[0], data.NewInt(9), r[1], r[2], r[3]}
			want, wantErr := pred.Eval(k.in, rec)
			got, gotErr := k.pred.Eval(k.in, rec)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.Kind() != want.Kind() || !got.Equal(want) {
				t.Errorf("%s, row %d: bound gives %v, %v; unbound %v, %v", src, i, got, gotErr, want, wantErr)
			}
			if wantErr != nil {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Error("no row met an attribute missing from the layout")
	}
}

// TestFilterBindsItsFunctions: a filter's function calls are bound to their
// functions when its kernel is resolved, so no row looks one up by name; a
// call to a function that is not registered fails the resolution, naming
// the function, and a run of it fails before a row is read.
func TestFilterBindsItsFunctions(t *testing.T) {
	in := data.Schema{"A", "S"}
	pred, err := dsl.ParsePredicate("upper(S) = 'X' and A > 1")
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(nil).resolveKernel(rowKernel{}, templates.Filter(pred, 0.5), in, in, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, unbound := k.pred.(algebra.Logic).Left.(algebra.Cmp).Left.(algebra.Call); unbound {
		t.Error("the filter's call to upper is not bound")
	}
	if pred, err = dsl.ParsePredicate("nosuchfn(S) = 'X'"); err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil).resolveKernel(rowKernel{}, templates.Filter(pred, 0.5), in, in, in); err == nil || !strings.Contains(err.Error(), `"nosuchfn"`) {
		t.Errorf("resolving a filter on an unknown function: %v, want an error naming it", err)
	}
	g, _ := chainGraph(t, in, templates.Filter(pred, 0.5))
	_, err = New(map[string]data.Recordset{"SRC": data.NewMemoryRecordset("SRC", in)}).Run(context.Background(), g)
	if err == nil || !strings.Contains(err.Error(), `"nosuchfn"`) {
		t.Errorf("a run over no rows: %v, want an error naming the function", err)
	}
}
