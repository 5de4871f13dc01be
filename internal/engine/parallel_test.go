package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// rowsIdentical reports bit-identity of two row slices by SameRun's rule:
// same rows, same order, same typed values. This is deliberately stricter
// than SameMultiset — Parallel mode promises the materialized row order,
// not just the multiset, and a resumed run the kinds a plain one has.
func rowsIdentical(a, b data.Rows) bool {
	run := func(rows data.Rows) *RunResult { return &RunResult{Targets: map[string]data.Rows{"": rows}} }
	return SameRun(run(a), run(b)) == nil
}

// TestParallelMatchesMaterialized is the mode's core contract: for
// generated scenarios across all three size categories, every target is
// byte-identical to the materialized run at P ∈ {1, 2, 4, 8}, and the
// per-node row counts agree.
func TestParallelMatchesMaterialized(t *testing.T) {
	cats := []generator.Category{generator.Small, generator.Medium, generator.Large}
	for _, cat := range cats {
		for seed := int64(0); seed < 4; seed++ {
			sc, err := generator.Generate(generator.CategoryConfig(cat, 7100+seed))
			if err != nil {
				t.Fatal(err)
			}
			mat, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatalf("cat %v seed %d materialized: %v", cat, seed, err)
			}
			for _, p := range []int{1, 2, 4, 8} {
				par, err := New(sc.Bind(), WithMode(Parallel), WithPartitions(p)).Run(context.Background(), sc.Graph)
				if err != nil {
					t.Fatalf("cat %v seed %d P=%d: %v", cat, seed, p, err)
				}
				if err := SameRun(mat, par); err != nil {
					t.Errorf("cat %v seed %d P=%d: not the materialized run: %v", cat, seed, p, err)
				}
			}
		}
	}
}

// TestParallelCancelNamesPartition verifies the partition-worker
// cancellation contract: the error wraps ctx.Err() and identifies the
// node and the partition index.
func TestParallelCancelNamesPartition(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	e := New(sc.Bind(), WithMode(Parallel), WithPartitions(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var id workflow.NodeID
	for _, nid := range sc.Graph.Nodes() {
		if sc.Graph.Node(nid).Kind == workflow.KindActivity {
			id = nid
			break
		}
	}
	n := sc.Graph.Node(id)
	err := e.forEachPartition(ctx, id, n, 4, 17, func(q int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	msg := err.Error()
	for _, want := range []string{"run cancelled at node", "partition 0", "after 17 rows", n.Label()} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestForEachPartitionFirstErrorWins verifies deterministic error
// selection: the lowest-indexed failing partition's error is returned
// regardless of goroutine scheduling.
func TestForEachPartitionFirstErrorWins(t *testing.T) {
	sc := templates.Fig1Scenario(10, 30)
	e := New(sc.Bind())
	id := sc.Graph.Nodes()[0]
	n := sc.Graph.Node(id)
	for i := 0; i < 20; i++ {
		err := e.forEachPartition(context.Background(), id, n, 8, 0, func(q int) error {
			if q >= 3 {
				return errors.New("boom " + string(rune('0'+q)))
			}
			return nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Fatalf("err = %v, want boom 3", err)
		}
	}
}

// TestLookupsScannedOncePerRun verifies the run-scoped lookup cache in
// every execution mode and under the checkpoint runner: however many
// nodes, batches or partitions consult a surrogate-key lookup, its
// recordset is scanned exactly once per run, and the engine value itself
// stays reusable (a second run scans once more, not zero — the cache is
// per run, not per engine, so a lookup rewritten between runs is re-read).
func TestLookupsScannedOncePerRun(t *testing.T) {
	cases := []struct {
		name       string
		opts       []Option
		checkpoint bool
	}{
		{name: "materialized", opts: []Option{WithMode(Materialized)}},
		{name: "parallel", opts: []Option{WithMode(Parallel), WithPartitions(8)}},
		{name: "checkpoint", checkpoint: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 4242))
			if err != nil {
				t.Fatal(err)
			}
			bindings := sc.Bind()
			scans := make(map[string]*int)
			for name := range sc.Lookups {
				n := new(int)
				bindings[name] = countingRecordset{Recordset: bindings[name], scans: n}
				scans[name] = n
			}
			if len(scans) == 0 {
				t.Fatal("scenario has no lookups to count")
			}
			e := New(bindings, c.opts...)
			run := e.Run
			if c.checkpoint {
				cr, err := NewCheckpointRunner(e, filepath.Join(t.TempDir(), "stage"))
				if err != nil {
					t.Fatal(err)
				}
				run = cr.Run
			}
			for pass := 1; pass <= 2; pass++ {
				if _, err := run(context.Background(), sc.Graph); err != nil {
					t.Fatal(err)
				}
				for name, n := range scans {
					if *n != pass {
						t.Errorf("lookup %s scanned %d times after %d runs, want one scan per run", name, *n, pass)
					}
				}
			}
		})
	}
}

// TestPartitionCount covers the default and the option.
func TestPartitionCount(t *testing.T) {
	if got := New(nil).partitionCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default partitionCount = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(nil, WithPartitions(5)).partitionCount(); got != 5 {
		t.Errorf("partitionCount = %d, want 5", got)
	}
	if got := New(nil, WithPartitions(0)).partitionCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("WithPartitions(0) should keep the default, got %d", got)
	}
}

// TestScatterExchangeGatherRoundTrip covers the tag machinery directly:
// scatter establishes the invariants, an exchange by any key preserves
// them, and gather restores the original order.
func TestScatterExchangeGatherRoundTrip(t *testing.T) {
	rows := make(data.Rows, 97)
	for i := range rows {
		rows[i] = data.Record{data.NewInt(int64(i % 7)), data.NewInt(int64(i))}
	}
	sc := templates.Fig1Scenario(10, 30)
	e := New(sc.Bind())
	id := sc.Graph.Nodes()[0]
	n := sc.Graph.Node(id)
	for _, p := range []int{1, 2, 3, 8, 97, 200} {
		pd := scatterRows(rows, p)
		if got := pd.total(); got != len(rows) {
			t.Fatalf("P=%d: scatter lost rows: %d != %d", p, got, len(rows))
		}
		if !rowsIdentical(gather(pd), rows) {
			t.Fatalf("P=%d: gather(scatter(rows)) != rows", p)
		}
		pos := []int{0}
		ex, err := e.exchangeByKey(context.Background(), id, n, pd, p, 0, []string{"K"}, pos)
		if err != nil {
			t.Fatal(err)
		}
		// Every row with the same key must land in the same partition.
		where := map[int64]int{} // the keys are ints
		for q, ps := range ex.parts {
			for i, r := range ps.rows {
				k := r[0].Int()
				if prev, ok := where[k]; ok && prev != q {
					t.Fatalf("P=%d: key %d split across partitions %d and %d", p, k, prev, q)
				}
				where[k] = q
				if i > 0 && ps.seqs[i] <= ps.seqs[i-1] {
					t.Fatalf("P=%d partition %d: tags not strictly increasing", p, q)
				}
				// The hash the exchange routed on rides along for the kernel.
				if ps.hashes[i] != data.HashKey(r, pos) {
					t.Fatalf("P=%d partition %d row %d: carried hash is not the row's key hash", p, q, i)
				}
			}
		}
		if !rowsIdentical(gather(ex), rows) {
			t.Fatalf("P=%d: gather(exchange(rows)) != rows", p)
		}
	}
}

// TestKeyedExchanges pins where keyed.etl routes rows: an operator whose
// input already lies partitioned on its key runs where the rows are. The
// group PK check after the difference, the join's left side (the
// intersection's output, on CUST_SK) and the aggregate (grouped by
// REGION, CUST_SK, fed on CUST_SK) exchange nothing; every other key
// operator exchanges as before, each exchange carrying its input's rows.
// The run is the one-partition run.
func TestKeyedExchanges(t *testing.T) {
	g, bind := keyedWorkload(t, 3000)
	one, err := New(bind()).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// The parser numbers nodes in declaration order.
	text, err := os.ReadFile("../../benchmark/workloads/keyed.etl")
	if err != nil {
		t.Fatal(err)
	}
	id, key := map[string]workflow.NodeID{}, map[string]string{}
	for _, line := range strings.Split(string(text), "\n") {
		if f := strings.Fields(line); len(f) > 1 && (f[0] == "recordset" || f[0] == "activity") {
			nid := g.Nodes()[len(id)]
			id[f[1]], key[nodeKey(nid, g.Node(nid))] = nid, f[1]
		}
	}
	if g.Node(id["CUSTDIM"]).Label() != "CUSTDIM" || g.Node(id["agg"]).Act.Sem.Op != workflow.OpAggregate {
		t.Fatal("keyed.etl's nodes are not numbered in declaration order")
	}
	rows := func(names ...string) []int64 {
		var out []int64
		for _, name := range names {
			out = append(out, int64(one.NodeRows[id[name]]))
		}
		return out
	}
	want := map[string][]int64{ // node → rows of each exchange, left side first
		"dA": rows("nnA"), "dB": rows("nnB"), "df": rows("u", "CANCELLED"),
		"ix": rows("pkl", "ACTIVE"), "j": rows("CUSTDIM"),
	}
	for _, p := range []int{2, 4, 8} {
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		res, err := New(bind(), WithMode(Parallel), WithPartitions(p), WithJournal(j)).Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := SameRun(one, res); err != nil {
			t.Fatalf("P=%d: not the one-partition run: %v", p, err)
		}
		evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]int64{}
		for _, ev := range evs {
			if ev.T == obs.EventExchange {
				got[key[ev.Node]] = append(got[key[ev.Node]], ev.Rows)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: exchanges %v, want %v", p, got, want)
		}
	}
}
