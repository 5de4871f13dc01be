package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/transitions"
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
			rows := realign(gather(out[preds[0]]), g.Node(preds[0]).Out, n.RS.Schema)
			ref.targets[n.RS.Name] = rows
			pd = scatterRows(rows, p)
		default:
			rows, err := e.scanSource(n)
			if err != nil {
				t.Fatal(err)
			}
			pd = scatterRows(rows, p)
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
	if !streamable(n.Act) {
		return e.execParallel(context.Background(), g, id, n, out, p, 0)
	}
	c, err := e.resolveChain(g, ids)
	if err != nil {
		return nil, err
	}
	pd, _, err := e.execChain(context.Background(), id, n, c, out[g.Providers(ids[0])[0]], p, make([]scratch, p), 0)
	return pd, err
}

// checkFused runs g through the driver at p partitions with a journal
// and holds it to the reference: target row sequences, per-activity
// NodeRows, and exactly one node event per activity and one batch event
// per activity and partition, carrying the reference's counts.
func checkFused(t *testing.T, label string, bind func() map[string]data.Recordset, g *workflow.Graph, p int) {
	t.Helper()
	ref := nodeByNode(t, New(bind()), g, p)
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, nil)
	res, err := New(bind(), WithMode(Parallel), WithPartitions(p), WithJournal(j)).Run(context.Background(), g)
	if err != nil {
		t.Fatalf("%s P=%d: %v", label, p, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.targets {
		if !rowsIdentical(want, res.Targets[name]) {
			t.Fatalf("%s P=%d: target %s: row sequence differs from the node-by-node reference", label, p, name)
		}
	}
	if len(res.NodeRows) != len(ref.nodeRows) {
		t.Fatalf("%s P=%d: %d nodes counted, reference %d", label, p, len(res.NodeRows), len(ref.nodeRows))
	}
	for id, want := range ref.nodeRows {
		if got := res.NodeRows[id]; got != want {
			t.Fatalf("%s P=%d: node %d (%s) emitted %d rows, reference %d", label, p, id, g.Node(id).Label(), got, want)
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
// keyed.etl at every size. Every fourth workflow has a row-local pair
// folded into a MER package, every fourth but two a row-local activity
// and an aggregate, and blockingPackages adds DISTINCT and the group-based
// PK check: such a package must also match its SPL form (checkSplit).
func TestFusedStageMatchesNodeByNode(t *testing.T) {
	i, fused, blocking := 0, 0, 0
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
			switch i % 4 {
			case 0:
				g, _, _ = withMergedPackage(g, false)
			case 2:
				var pkg, last workflow.NodeID
				if g, pkg, last = withMergedPackage(g, true); pkg != 0 {
					blocking++
					for _, p := range []int{1, 2, 8} {
						checkSplit(t, label, truncated(sc, size), g, sc.Graph, map[workflow.NodeID]workflow.NodeID{pkg: last}, p)
					}
				}
			}
			order, _ := g.TopoSort()
			for _, ids := range planStages(g, order) {
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
	if fused < 200 || blocking < 10 {
		t.Errorf("%d fused stages and %d blocking packages over the corpus; it no longer exercises them", fused, blocking)
	}
	for _, size := range fusedSizes {
		for _, p := range []int{1, 2, 8} {
			g, bind := realignedHead(t, size)
			checkFused(t, fmt.Sprintf("realigned head, size %d", size), bind, g, p)
			g, bind = twoConsumers(t, size)
			checkFused(t, fmt.Sprintf("two consumers, size %d", size), bind, g, p)
			g, bind = keyedWorkload(t, size)
			checkFused(t, fmt.Sprintf("keyed.etl, size %d", size), bind, g, p)
			g, split, last, bind := blockingPackages(t, size)
			checkSplit(t, fmt.Sprintf("blocking packages, size %d", size), bind, g, split, last, p)
			checkFused(t, fmt.Sprintf("blocking packages, size %d", size), bind, g, p)
		}
	}
}

// withMergedPackage folds the first mergeable adjacent pair of g into a
// MER package — a pair of row-local activities, or with blocking set a
// row-local and an aggregate, distinct or group-based PK check — and
// returns the new graph, the package's ID and the ID in g of the pair's
// second; g itself and no IDs when there is no such pair.
func withMergedPackage(g *workflow.Graph, blocking bool) (*workflow.Graph, workflow.NodeID, workflow.NodeID) {
	for _, grp := range g.LocalGroups() {
		for i := 0; i+1 < len(grp); i++ {
			a, b := streamable(g.Node(grp[i]).Act), streamable(g.Node(grp[i+1]).Act)
			if blocking && a == b || !blocking && !(a && b) {
				continue
			}
			if res, err := transitions.Merge(g, grp[i], grp[i+1]); err == nil {
				return res.Graph, res.Dirty[0], grp[i+1]
			}
		}
	}
	return g, 0, 0
}

// checkSplit runs the graph with packages and its SPL form at p
// partitions: the target rows must be the same, value for value and in
// order, and each package must count what its last component counts in the
// SPL form (last maps the one to the other).
func checkSplit(t *testing.T, label string, bind func() map[string]data.Recordset, merged, split *workflow.Graph, last map[workflow.NodeID]workflow.NodeID, p int) {
	t.Helper()
	var res [2]*RunResult
	for k, g := range []*workflow.Graph{merged, split} {
		var err error
		if res[k], err = New(bind(), WithMode(Parallel), WithPartitions(p)).Run(context.Background(), g); err != nil {
			t.Fatalf("%s P=%d: %v", label, p, err)
		}
	}
	for name, want := range res[1].Targets {
		if !rowsIdentical(res[0].Targets[name], want) {
			t.Fatalf("%s P=%d: target %s differs between the packages and their SPL form", label, p, name)
		}
	}
	for pkg, comp := range last {
		if op := merged.Node(pkg).Act.Sem.Op; op != workflow.OpMerged {
			t.Fatalf("%s: node %d is %s, not a package", label, pkg, op)
		}
		if got, want := res[0].NodeRows[pkg], res[1].NodeRows[comp]; got != want {
			t.Fatalf("%s P=%d: package %s counts %d rows, its last component %d", label, p, merged.Node(pkg).Label(), got, want)
		}
	}
}

// blockingPackages is SRC → nn+DISTINCT → PK(KEY)+scale10 → σ+γ → TGT:
// each package a row-local and a blocking activity, in either order. It
// returns the graph, its SPL form and each package's last component there.
func blockingPackages(t testing.TB, n int) (*workflow.Graph, *workflow.Graph, map[workflow.NodeID]workflow.NodeID, func() map[string]data.Recordset) {
	split, ids := chainGraph(t, measureSchema,
		templates.NotNull(0.9, "V1"), templates.Distinct(1), templates.PKCheck(1, "KEY"), templates.Convert("scale10", "W1", "V1"),
		templates.Threshold("W1", 100, 0.9), templates.Aggregate([]string{"V3"}, workflow.AggSum, "W1", "TOTAL", 0.1))
	merged, last := split, map[workflow.NodeID]workflow.NodeID{}
	for i := 0; i < len(ids); i += 2 {
		res, err := transitions.Merge(merged, ids[i], ids[i+1])
		if err != nil {
			t.Fatal(err)
		}
		merged, last[res.Dirty[0]] = res.Graph, ids[i+1]
	}
	return merged, split, last, bindMeasures(n)
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
		for _, ids := range planStages(g, order) {
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
	return e, g, ids, scatterRows(measureRows(n), 1)
}

// TestStageAllocations is the allocation ceiling of a fused stage: at
// most one record per surviving row (plus the output slices and the
// scratch, which do not grow with the rows), and on a small input no more
// than the node-by-node reference — a fixed batchRows slab would be.
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
	if per := perRun / float64(survivors); per > 1.1 {
		t.Errorf("%.3f allocations per surviving row, ceiling 1.1", per)
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
