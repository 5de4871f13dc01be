package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// TestKeyTableForcedCollisions builds tables whose 64-bit hashes are
// truncated to two bits and to nothing, so that most different keys
// collide on the full hash, and checks groups, member order and the last
// member against a grouping by the (separator-free) string key.
func TestKeyTableForcedCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []data.Value{
		data.NewInt(1), data.NewFloat(1), data.NewBool(true), data.NewString("1"), data.Null,
		data.NewString(""), data.NewInt(2), data.NewFloat(2.5), data.NewString("abcdefgh"), data.NewString("abcdefghi"),
	}
	rows := make(data.Rows, 400)
	for i := range rows {
		rows[i] = data.Record{pool[rng.Intn(len(pool))], data.NewInt(int64(i)), pool[rng.Intn(len(pool))]}
	}
	pos := []int{2, 0}
	for _, mask := range []uint64{0, 3, ^uint64(0)} {
		in := hashKeys(rows, pos)
		for i := range in.hashes {
			in.hashes[i] &= mask
		}
		tab, err := newKeyTable(in)
		if err != nil {
			t.Fatal(err)
		}
		if mask != ^uint64(0) && tab.clash == nil {
			t.Fatalf("mask %x: no full-hash collision was forced", mask)
		}
		var order []string            // reference: keys in first-appearance order
		members := map[string][]int{} // reference: a key's rows in input order
		for i, r := range rows {
			k := data.Record{r[2], r[0]}.Key()
			if members[k] == nil {
				order = append(order, k)
			}
			members[k] = append(members[k], i)
		}
		if len(tab.groups) != len(order) {
			t.Fatalf("mask %x: %d groups, want %d", mask, len(tab.groups), len(order))
		}
		for g, k := range order {
			want := members[k]
			var got []int
			for m := tab.groups[g].first; ; m = tab.next[m] {
				got = append(got, int(m))
				if tab.group[m] != int32(g) {
					t.Fatalf("mask %x: row %d is chained into group %d but assigned to %d", mask, m, g, tab.group[m])
				}
				if tab.next[m] == 0 {
					break
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("mask %x group %d (%q): members %v, want %v", mask, g, k, got, want)
			}
			if last := int(tab.groups[g].last); last != want[len(want)-1] {
				t.Fatalf("mask %x group %d: last = %d, want %d (last wins)", mask, g, last, want[len(want)-1])
			}
			// A probe from a row laid out differently finds the group.
			probe := data.Record{rows[want[0]][2], rows[want[0]][0]}
			if found := tab.find(data.HashKey(probe, nil)&mask, probe, nil); found != int32(g) {
				t.Fatalf("mask %x: find(%v) = %d, want group %d", mask, probe, found, g)
			}
		}
		absent := data.Record{data.NewString("absent"), data.NewInt(1)}
		if found := tab.find(data.HashKey(absent, nil)&mask, absent, nil); found != -1 {
			t.Fatalf("mask %x: find of an absent key = %d, want -1", mask, found)
		}
	}
}

// TestSeparatorCollision: the two tuples below share one "\x1f"-joined
// string key, so a string-keyed engine treated them as one key — DISTINCT
// and the group key check dropped a row, difference dropped the wrong one,
// intersection and join matched them, aggregation merged them. Keys are
// compared column by column now.
func TestSeparatorCollision(t *testing.T) {
	x := data.Record{data.NewString("a\x1fs:b"), data.NewString("c")}
	y := data.Record{data.NewString("a"), data.NewString("b\x1fs:c")}
	if x.Key() != y.Key() {
		t.Fatal("fixture: the string keys are expected to collide")
	}
	schema := data.Schema{"K1", "K2"}
	both, left, right := data.Rows{x, y}, data.Rows{x}, data.Rows{y}
	bothModes(t, func(t *testing.T, mode Mode) {
		for _, c := range []struct {
			name string
			got  data.Rows
			want int
		}{
			{"distinct", runChain(t, mode, schema, both, nil, templates.Distinct(1)), 2},
			{"group pkcheck", runChain(t, mode, schema, both, nil, templates.PKCheck(1, "K1", "K2")), 2},
			{"aggregate", runChain(t, mode, schema, both, nil,
				templates.Aggregate([]string{"K1", "K2"}, workflow.AggCount, "", "N", 1)), 2},
			{"diff", runBinary(t, mode, schema, schema, left, right, templates.Diff(1, "K1", "K2")), 1},
			{"intersect", runBinary(t, mode, schema, schema, left, right, templates.Intersect(1, "K1", "K2")), 0},
			{"join", runBinary(t, mode, schema, schema, left, right, templates.Join(1, "K1", "K2")), 0},
		} {
			if len(c.got) != c.want {
				t.Errorf("%s: %d rows %v, want %d", c.name, len(c.got), c.got, c.want)
			}
		}
	})
}

// orderFixture is n order rows with long string keys — ORDER_ID nearly
// unique with 5 % exact duplicate rows, CUST Zipf-distributed — and the
// customer dimension every CUST appears in once.
func orderFixture(n int) (orders, customers data.Rows) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 999)
	cust := func(id int) data.Value { return data.NewString(fmt.Sprintf("CUSTOMER-%05d-ACCOUNT-%010d", id%977, id)) }
	orders = make(data.Rows, n)
	for i := range orders {
		if i > 0 && rng.Float64() < 0.05 {
			orders[i] = orders[rng.Intn(i)]
			continue
		}
		orders[i] = data.Record{
			data.NewString(fmt.Sprintf("ORD-2005-A-%04d-%012d", rng.Intn(10000), rng.Int63n(1e12))),
			cust(int(zipf.Uint64())),
			data.NewFloat(float64(rng.Intn(80000)) / 8),
		}
	}
	for id := 0; id < 1000; id++ {
		customers = append(customers, data.Record{cust(id), data.NewInt(int64(500000 + id))})
	}
	return orders, customers
}

// TestKeyOperatorAllocations is the allocation ceiling of the key path:
// per input row, a key-sensitive operator allocates (almost) nothing
// beyond what it outputs — no key string, no map entry per row. Each runs
// at one partition as a stage of one: through execParallelOp, or as a
// chain of one when it is row-local.
func TestKeyOperatorAllocations(t *testing.T) {
	const n = 10000
	orders, customers := orderFixture(n)
	in := data.Schema{"ORDER_ID", "CUST", "AMOUNT"}
	dim := data.Schema{"CUST", "CUST_SK"}
	cancelled := orders[:n/10]
	e := New(map[string]data.Recordset{
		"DWORDERS": data.NewMemoryRecordset("DWORDERS", data.Schema{"ORDER_ID"}).MustLoad(realign(cancelled, in, data.Schema{"ORDER_ID"})),
	}).forRun()
	agg := templates.Aggregate([]string{"CUST"}, workflow.AggSum, "AMOUNT", "TOTAL", 1)
	sides := []data.Schema{in, dim}
	node := &workflow.Node{Kind: workflow.KindActivity, Act: templates.Distinct(1)}
	binary := func(a *workflow.Activity, in []data.Schema, out data.Schema, right data.Rows) func() (data.Rows, error) {
		n := &workflow.Node{Kind: workflow.KindActivity, Act: a, In: in, Out: out}
		return func() (data.Rows, error) {
			inputs := []*pdata{scatterRows(orders, 1)}
			if right != nil {
				inputs = append(inputs, scatterRows(right, 1))
			}
			var pd *pdata
			var err error
			if !streamable(a) {
				pd, err = e.execParallelOp(context.Background(), 0, n, inputs, 1, 0)
			} else {
				var ks []rowKernel
				if ks, err = e.appendKernels(nil, rowKernel{}, a, in[0], out); err == nil {
					pd, _, err = e.execChain(context.Background(), 0, n, newRowChain(ks), inputs[0], 1, make([]scratch, 1), 0)
				}
			}
			if err != nil {
				return nil, err
			}
			return gather(pd), nil
		}
	}
	unary := func(a *workflow.Activity, out data.Schema) func() (data.Rows, error) {
		return binary(a, []data.Schema{in}, out, nil)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() (data.Rows, error)
	}{
		{"distinct", 0.1, unary(templates.Distinct(1), in)},
		{"group pkcheck", 0.1, unary(templates.PKCheck(1, "ORDER_ID"), in)},
		{"lookup pkcheck", 0.1, unary(templates.PKCheckAgainst("DWORDERS", 1, "ORDER_ID"), in)},
		{"diff", 0.1, binary(templates.Diff(1, "ORDER_ID"), []data.Schema{in, in}, in, cancelled)},
		{"intersect", 0.1, binary(templates.Intersect(1, "CUST"), sides, in, customers)},
		{"aggregate", 0.5, unary(agg, data.Schema{"CUST", "TOTAL"})},
		{"join", 1.1, binary(templates.Join(1, "CUST"), sides, data.Schema{"ORDER_ID", "CUST", "AMOUNT", "CUST_SK"}, customers)},
		{"exchange P=4", 0.1, func() (data.Rows, error) {
			pd, err := e.exchangeByKey(context.Background(), 1, node, scatterRows(orders, 4), 4, 0, []int{0})
			if err != nil {
				return nil, err
			}
			return gather(pd), nil
		}},
	} {
		var out data.Rows
		var err error
		perRow := testing.AllocsPerRun(3, func() { out, err = c.run() }) / n
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty output; the fixture no longer exercises it", c.name)
		}
		if perRow > c.ceiling {
			t.Errorf("%s: %.3f allocations per input row, ceiling %.1f", c.name, perRow, c.ceiling)
		}
	}
}
